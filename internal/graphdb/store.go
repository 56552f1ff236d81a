package graphdb

import (
	"fmt"

	"repro/internal/budget"
)

// Value is a property value: string, int64, float64, bool, or nil.
type Value any

// NodeID identifies a node.
type NodeID int64

// Node is one graph node.
type Node struct {
	ID     NodeID
	Labels []string
	Props  map[string]Value
}

// HasLabel reports whether the node carries label l.
func (n *Node) HasLabel(l string) bool {
	for _, x := range n.Labels {
		if x == l {
			return true
		}
	}
	return false
}

// Prop returns the named property (nil when absent).
func (n *Node) Prop(name string) Value { return n.Props[name] }

// Rel is one directed relationship.
type Rel struct {
	ID       int64
	From, To NodeID
	Type     string
	Props    map[string]Value
}

// Prop returns the named property (nil when absent).
func (r *Rel) Prop(name string) Value { return r.Props[name] }

// DB is an in-memory property graph. Node ids are dense (1..N in
// creation order), so nodes and their adjacency lists live in slices
// indexed by id-1.
type DB struct {
	nodes   []*Node
	out     [][]*Rel
	in      [][]*Rel
	byLabel map[string][]*Node
	numRels int

	// bud, when set, is charged one step per node visited during query
	// execution, so runaway variable-length expansions abort with a
	// classified budget error instead of hanging a sweep.
	bud *budget.Budget
}

// SetBudget makes query execution on this database cooperate with a
// fault-containment budget (nil disables the checks).
func (db *DB) SetBudget(b *budget.Budget) { db.bud = b }

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{byLabel: make(map[string][]*Node)}
}

// CreateNode adds a node with the given labels and properties and
// returns it.
func (db *DB) CreateNode(labels []string, props map[string]Value) *Node {
	if props == nil {
		props = map[string]Value{}
	}
	n := &Node{ID: NodeID(len(db.nodes) + 1), Labels: append([]string(nil), labels...), Props: props}
	db.nodes = append(db.nodes, n)
	db.out = append(db.out, nil)
	db.in = append(db.in, nil)
	for _, l := range labels {
		db.byLabel[l] = append(db.byLabel[l], n)
	}
	return n
}

// CreateRel adds a relationship from → to with the given type.
func (db *DB) CreateRel(from, to NodeID, typ string, props map[string]Value) (*Rel, error) {
	if db.NodeByID(from) == nil || db.NodeByID(to) == nil {
		return nil, fmt.Errorf("graphdb: relationship endpoints must exist (%d -> %d)", from, to)
	}
	db.numRels++
	if props == nil {
		props = map[string]Value{}
	}
	r := &Rel{ID: int64(db.numRels), From: from, To: to, Type: typ, Props: props}
	db.out[from-1] = append(db.out[from-1], r)
	db.in[to-1] = append(db.in[to-1], r)
	return r, nil
}

// NodeByID returns the node with the given id, or nil.
func (db *DB) NodeByID(id NodeID) *Node {
	if id < 1 || int64(id) > int64(len(db.nodes)) {
		return nil
	}
	return db.nodes[id-1]
}

// NumNodes returns the node count.
func (db *DB) NumNodes() int { return len(db.nodes) }

// NumRels returns the relationship count.
func (db *DB) NumRels() int { return db.numRels }

// NodesByLabel returns all nodes carrying label l, in insertion order.
func (db *DB) NodesByLabel(l string) []*Node {
	return append([]*Node(nil), db.byLabel[l]...)
}

// AllNodes returns every node in id order.
func (db *DB) AllNodes() []*Node { return append([]*Node(nil), db.nodes...) }

// Out returns the outgoing relationships of id.
func (db *DB) Out(id NodeID) []*Rel {
	if db.NodeByID(id) == nil {
		return nil
	}
	return db.out[id-1]
}

// In returns the incoming relationships of id.
func (db *DB) In(id NodeID) []*Rel {
	if db.NodeByID(id) == nil {
		return nil
	}
	return db.in[id-1]
}

// Path is a bound path: nodes and the relationships connecting them
// (len(Rels) = len(Nodes)-1).
type Path struct {
	Nodes []*Node
	Rels  []*Rel
}

// Start returns the first node of the path.
func (p Path) Start() *Node { return p.Nodes[0] }

// End returns the last node of the path.
func (p Path) End() *Node { return p.Nodes[len(p.Nodes)-1] }

// Len returns the number of relationships in the path.
func (p Path) Len() int { return len(p.Rels) }

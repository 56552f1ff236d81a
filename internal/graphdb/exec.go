package graphdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Row is one result row: projected values keyed by alias (or rendered
// expression text).
type Row map[string]Value

// Result is the outcome of a query.
type Result struct {
	Columns []string
	Rows    []Row
}

// Binding values can be *Node, []*Rel (relationship variable), Path, or
// a plain Value.
//
// One binding map serves a whole query execution: the matcher binds a
// variable for the duration of a recursive call and restores the map
// before returning, so nothing may keep a binding past the callback it
// was passed to (emit copies what it projects into a Row).
type binding map[string]any

// set binds name to v and returns the previous state for restore.
func (b binding) set(name string, v any) (prev any, had bool) {
	prev, had = b[name]
	b[name] = v
	return prev, had
}

// restore undoes a set.
func (b binding) restore(name string, prev any, had bool) {
	if had {
		b[name] = prev
	} else {
		delete(b, name)
	}
}

// isNodeVar reports whether name is the variable of some node pattern
// and of no relationship pattern or path.
func isNodeVar(patterns []Pattern, name string) bool {
	node := false
	for _, p := range patterns {
		if p.PathVar == name {
			return false
		}
		for _, np := range p.Nodes {
			node = node || np.Var == name
		}
		for _, rp := range p.Rels {
			if rp.Var == name {
				return false
			}
		}
	}
	return node
}

// ExecError is a query-evaluation error.
type ExecError struct{ Msg string }

func (e *ExecError) Error() string { return "graphdb: " + e.Msg }

func execErrf(format string, args ...any) error {
	return &ExecError{Msg: fmt.Sprintf(format, args...)}
}

// Query parses src and executes it against the database. It parses on
// every call; a caller running one fixed query many times parses it
// once with ParseQuery and runs the result with Exec or ExecBound.
func (db *DB) Query(src string) (*Result, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.Exec(q)
}

// Exec executes a parsed query. Execution only reads q, so one parsed
// query may run concurrently against different databases.
func (db *DB) Exec(q *Query) (*Result, error) { return db.ExecBound(q, nil) }

// ExecBound executes a parsed query with some node-pattern variables
// bound in advance to nodes of this database. A bound variable's node
// pattern matches only its node (when the node passes the pattern's
// labels and properties), so the rows are those of the query with
// `WHERE id(v) = <id>` added for every bound v, in the same order, but
// matching starts from the bound nodes instead of scanning every node.
// Binding a name that is not a node-pattern variable of q (absent, or
// a relationship or path variable) is an error.
func (db *DB) ExecBound(q *Query, bound map[string]*Node) (*Result, error) {
	var patterns []Pattern
	for _, m := range q.Matches {
		patterns = append(patterns, m.Patterns...)
	}

	start := make(binding, len(bound))
	for name, n := range bound {
		if !isNodeVar(patterns, name) {
			return nil, execErrf("bound variable %q is not a node-pattern variable of the query", name)
		}
		if n == nil || db.NodeByID(n.ID) != n {
			return nil, execErrf("bound variable %q is not a node of this database", name)
		}
		start[name] = n
	}

	res := &Result{}
	for i, item := range q.Return.Items {
		name := item.Alias
		if name == "" {
			name = renderExpr(item.Expr)
		}
		if name == "" {
			name = fmt.Sprintf("col%d", i)
		}
		res.Columns = append(res.Columns, name)
	}

	// Aggregation: when every return item is a count(...), the query
	// collapses to a single row of counters over all matches.
	aggregate := len(q.Return.Items) > 0
	for _, item := range q.Return.Items {
		call, ok := item.Expr.(CallExpr)
		if !ok || call.Fn != "count" {
			aggregate = false
			break
		}
	}
	counts := make([]int64, len(q.Return.Items))

	seen := map[string]struct{}{}
	var keyBuf []byte
	limitReached := false
	// ORDER BY needs every row before truncation.
	earlyStop := q.Return.OrderBy == nil

	type sortedRow struct {
		row Row
		key Value
	}
	var sortable []sortedRow

	emit := func(b binding) error {
		if q.Where != nil {
			ok, err := evalBool(q.Where, b, db)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		if aggregate {
			for i, item := range q.Return.Items {
				call := item.Expr.(CallExpr)
				if len(call.Args) == 0 {
					counts[i]++
					continue
				}
				v, err := evalExpr(call.Args[0], b, db)
				if err != nil {
					return err
				}
				if v != nil {
					counts[i]++
				}
			}
			return nil
		}
		row := make(Row, len(q.Return.Items))
		for i, item := range q.Return.Items {
			v, err := evalExpr(item.Expr, b, db)
			if err != nil {
				return err
			}
			row[res.Columns[i]] = v
		}
		if q.Return.Distinct {
			keyBuf = appendRowKey(keyBuf[:0], res.Columns, row)
			if _, dup := seen[string(keyBuf)]; dup {
				return nil
			}
			seen[string(keyBuf)] = struct{}{}
		}
		if q.Return.OrderBy != nil {
			k, err := evalExpr(q.Return.OrderBy, b, db)
			if err != nil {
				return err
			}
			sortable = append(sortable, sortedRow{row: row, key: k})
			return nil
		}
		res.Rows = append(res.Rows, row)
		if q.Return.Limit > 0 && q.Return.Skip == 0 && len(res.Rows) >= q.Return.Limit && earlyStop {
			limitReached = true
		}
		return nil
	}

	var match func(pi int, b binding) error
	match = func(pi int, b binding) error {
		if limitReached {
			return nil
		}
		if pi == len(patterns) {
			return emit(b)
		}
		return db.matchPattern(&patterns[pi], b, func(nb binding) error {
			return match(pi+1, nb)
		})
	}
	if err := match(0, start); err != nil {
		return nil, err
	}

	if aggregate {
		row := Row{}
		for i := range q.Return.Items {
			row[res.Columns[i]] = counts[i]
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}

	if q.Return.OrderBy != nil {
		sort.SliceStable(sortable, func(i, j int) bool {
			less := lessValues(sortable[i].key, sortable[j].key)
			if q.Return.OrderDesc {
				return !less && !valueEq(sortable[i].key, sortable[j].key)
			}
			return less
		})
		for _, sr := range sortable {
			res.Rows = append(res.Rows, sr.row)
		}
	}
	if q.Return.Skip > 0 {
		if q.Return.Skip >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Return.Skip:]
		}
	}
	if q.Return.Limit > 0 && len(res.Rows) > q.Return.Limit {
		res.Rows = res.Rows[:q.Return.Limit]
	}
	return res, nil
}

// lessValues orders values for ORDER BY: numbers before strings, both
// ascending; other types compare by rendering.
func lessValues(a, b Value) bool {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		return af < bf
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return as < bs
	}
	if aok != bok {
		return aok // numbers sort first
	}
	return fmt.Sprint(a) < fmt.Sprint(b)
}

// matchPattern enumerates all bindings of one pattern, invoking k for
// each. Variables already bound in b constrain the match. b is
// extended in place while k runs and restored before matchPattern
// returns.
func (db *DB) matchPattern(p *Pattern, b binding, k func(binding) error) error {
	m := &chainMatch{db: db, p: p, b: b, k: k}
	first := &p.Nodes[0]
	if first.Var != "" {
		if v, ok := b[first.Var]; ok {
			n, isNode := v.(*Node)
			if !isNode {
				return execErrf("variable %q is not a node", first.Var)
			}
			if !nodeMatches(first, n) {
				return nil
			}
			if err := db.bud.Step(); err != nil {
				return err
			}
			return m.start(n)
		}
	}
	// Candidates: a label index scan, or every node in id order.
	pool := db.nodes
	if len(first.Labels) > 0 {
		pool = db.byLabel[first.Labels[0]]
	}
	for _, n := range pool {
		if !nodeMatches(first, n) {
			continue
		}
		if err := db.bud.Step(); err != nil {
			return err
		}
		if first.Var != "" {
			b[first.Var] = n
		}
		err := m.start(n)
		if first.Var != "" {
			delete(b, first.Var)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// chainMatch extends one pattern's match from its first node along
// its relationship patterns, depth first.
type chainMatch struct {
	db *DB
	p  *Pattern
	b  binding
	k  func(binding) error
	// rels is the stack of relationships matched so far; the
	// variable-length expansion of relationship pattern i owns the
	// suffix from the depth it started at.
	rels []*Rel
	// nodes is the path's node stack, kept only when the pattern binds
	// a path variable.
	nodes []*Node
}

// start matches the rest of the pattern from first node n.
func (m *chainMatch) start(n *Node) error {
	if m.p.PathVar != "" {
		m.nodes = append(m.nodes[:0], n)
	}
	return m.chain(0, n)
}

// chain matches relationship pattern i (and everything after it) from
// node cur.
func (m *chainMatch) chain(i int, cur *Node) error {
	if i == len(m.p.Rels) {
		return m.emit()
	}
	if m.p.Rels[i].MinHops == 0 {
		// Zero-length match allowed: the target is cur itself.
		if err := m.hit(i, cur, len(m.rels)); err != nil {
			return err
		}
	}
	return m.expand(i, cur, 0, len(m.rels))
}

// expand enumerates matches of relationship pattern i from n, which is
// depth hops into the expansion whose relationships are m.rels[seg:],
// following trail semantics (no relationship repeated within one
// variable-length expansion).
func (m *chainMatch) expand(i int, n *Node, depth, seg int) error {
	if err := m.db.bud.Step(); err != nil {
		return err
	}
	rp := &m.p.Rels[i]
	// depth 0 (zero-length) is handled by chain.
	if depth > 0 && depth >= rp.MinHops {
		if err := m.hit(i, n, seg); err != nil {
			return err
		}
	}
	if depth == rp.MaxHops {
		return nil
	}
	adj := m.db.out[n.ID-1]
	if rp.Reverse {
		adj = m.db.in[n.ID-1]
	}
	for _, r := range adj {
		if !relMatches(rp, r) || inTrail(m.rels[seg:], r) {
			continue
		}
		t := m.db.nodes[r.To-1]
		if rp.Reverse {
			t = m.db.nodes[r.From-1]
		}
		m.rels = append(m.rels, r)
		if m.p.PathVar != "" {
			m.nodes = append(m.nodes, t)
		}
		err := m.expand(i, t, depth+1, seg)
		m.rels = m.rels[:len(m.rels)-1]
		if m.p.PathVar != "" {
			m.nodes = m.nodes[:len(m.nodes)-1]
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// hit handles one match of relationship pattern i ending at target,
// the expansion's relationships being m.rels[seg:]: it checks and
// binds node pattern i+1 and the relationship variable, then matches
// the rest of the pattern.
func (m *chainMatch) hit(i int, target *Node, seg int) error {
	np := &m.p.Nodes[i+1]
	if !nodeMatches(np, target) {
		return nil
	}
	bindNode := false
	if np.Var != "" {
		if existing, ok := m.b[np.Var]; ok {
			en, isNode := existing.(*Node)
			if !isNode || en.ID != target.ID {
				return nil
			}
		} else {
			m.b[np.Var] = target
			bindNode = true
		}
	}
	rp := &m.p.Rels[i]
	var prev any
	var had bool
	if rp.Var != "" {
		prev, had = m.b.set(rp.Var, append([]*Rel(nil), m.rels[seg:]...))
	}
	err := m.chain(i+1, target)
	if rp.Var != "" {
		m.b.restore(rp.Var, prev, had)
	}
	if bindNode {
		delete(m.b, np.Var)
	}
	return err
}

// emit hands a complete match to k, binding the path variable (a
// fresh copy of the path stacks) when the pattern has one.
func (m *chainMatch) emit() error {
	if m.p.PathVar == "" {
		return m.k(m.b)
	}
	path := Path{
		Nodes: append([]*Node(nil), m.nodes...),
		Rels:  append([]*Rel(nil), m.rels...),
	}
	prev, had := m.b.set(m.p.PathVar, path)
	err := m.k(m.b)
	m.b.restore(m.p.PathVar, prev, had)
	return err
}

// inTrail reports whether r is already used in trail.
func inTrail(trail []*Rel, r *Rel) bool {
	for _, x := range trail {
		if x == r {
			return true
		}
	}
	return false
}

// relMatches reports whether r passes the pattern's type and property
// filters.
func relMatches(rp *RelPattern, r *Rel) bool {
	if len(rp.Types) > 0 {
		ok := false
		for _, t := range rp.Types {
			if r.Type == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for name, want := range rp.Props {
		if !valueEq(r.Props[name], want) {
			return false
		}
	}
	return true
}

func nodeMatches(np *NodePattern, n *Node) bool {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	for name, want := range np.Props {
		if !valueEq(n.Props[name], want) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

func evalExpr(e Expr, b binding, db *DB) (Value, error) {
	switch x := e.(type) {
	case LitExpr:
		return x.Val, nil
	case VarExpr:
		v, ok := b[x.Name]
		if !ok {
			return nil, execErrf("unbound variable %q", x.Name)
		}
		return v, nil
	case PropExpr:
		v, ok := b[x.Var]
		if !ok {
			return nil, execErrf("unbound variable %q", x.Var)
		}
		switch tv := v.(type) {
		case *Node:
			return tv.Props[x.Prop], nil
		case []*Rel:
			if len(tv) == 1 {
				return tv[0].Props[x.Prop], nil
			}
			return nil, execErrf("property access on multi-hop relationship %q", x.Var)
		default:
			return nil, execErrf("property access on non-entity %q", x.Var)
		}
	case NotExpr:
		ok, err := evalBool(x.X, b, db)
		if err != nil {
			return nil, err
		}
		return !ok, nil
	case BinExpr:
		return evalBin(x, b, db)
	case CallExpr:
		return evalCall(x, b, db)
	case ListExpr:
		out := make([]Value, 0, len(x.Elems))
		for _, el := range x.Elems {
			v, err := evalExpr(el, b, db)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, execErrf("unknown expression")
}

func evalBool(e Expr, b binding, db *DB) (bool, error) {
	v, err := evalExpr(e, b, db)
	if err != nil {
		return false, err
	}
	bv, ok := v.(bool)
	if !ok {
		return v != nil, nil
	}
	return bv, nil
}

func evalBin(x BinExpr, b binding, db *DB) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := evalBool(x.L, b, db)
		if err != nil || !l {
			return false, err
		}
		return evalBool(x.R, b, db)
	case "OR":
		l, err := evalBool(x.L, b, db)
		if err != nil {
			return nil, err
		}
		if l {
			return true, nil
		}
		return evalBool(x.R, b, db)
	}
	l, err := evalExpr(x.L, b, db)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(x.R, b, db)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=":
		return valueEq(l, r), nil
	case "<>":
		return !valueEq(l, r), nil
	case "<", ">", "<=", ">=":
		return compareValues(x.Op, l, r)
	case "IN":
		list, ok := r.([]Value)
		if !ok {
			return nil, execErrf("IN requires a list")
		}
		for _, v := range list {
			if valueEq(l, v) {
				return true, nil
			}
		}
		return false, nil
	}
	return nil, execErrf("unknown operator %q", x.Op)
}

func evalCall(x CallExpr, b binding, db *DB) (Value, error) {
	argVal := func(i int) (Value, error) {
		if i >= len(x.Args) {
			return nil, execErrf("%s: missing argument", x.Fn)
		}
		return evalExpr(x.Args[i], b, db)
	}
	switch x.Fn {
	case "id":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		if n, ok := v.(*Node); ok {
			return int64(n.ID), nil
		}
		return nil, execErrf("id: argument is not a node")
	case "labels":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		n, ok := v.(*Node)
		if !ok {
			return nil, execErrf("labels: argument is not a node")
		}
		out := make([]Value, len(n.Labels))
		for i, l := range n.Labels {
			out[i] = l
		}
		return out, nil
	case "length":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		switch tv := v.(type) {
		case Path:
			return int64(tv.Len()), nil
		case []*Rel:
			return int64(len(tv)), nil
		case []Value:
			return int64(len(tv)), nil
		}
		return nil, execErrf("length: unsupported argument")
	case "type":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		if rels, ok := v.([]*Rel); ok && len(rels) == 1 {
			return rels[0].Type, nil
		}
		return nil, execErrf("type: argument is not a single relationship")
	case "count":
		// count(x) in our subset counts non-null per row: 0 or 1.
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return int64(0), nil
		}
		return int64(1), nil
	}
	return nil, execErrf("unknown function %q", x.Fn)
}

func valueEq(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	// Numeric comparison across int64/float64.
	af, aNum := toFloat(a)
	bf, bNum := toFloat(b)
	if aNum && bNum {
		return af == bf
	}
	return a == b
}

func toFloat(v Value) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	case int:
		return float64(n), true
	}
	return 0, false
}

func compareValues(op string, l, r Value) (Value, error) {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		switch op {
		case "<":
			return lf < rf, nil
		case ">":
			return lf > rf, nil
		case "<=":
			return lf <= rf, nil
		default:
			return lf >= rf, nil
		}
	}
	ls, lok2 := l.(string)
	rs, rok2 := r.(string)
	if lok2 && rok2 {
		switch op {
		case "<":
			return ls < rs, nil
		case ">":
			return ls > rs, nil
		case "<=":
			return ls <= rs, nil
		default:
			return ls >= rs, nil
		}
	}
	return nil, execErrf("cannot compare %T and %T", l, r)
}

func renderExpr(e Expr) string {
	switch x := e.(type) {
	case VarExpr:
		return x.Name
	case PropExpr:
		return x.Var + "." + x.Prop
	case CallExpr:
		var args []string
		for _, a := range x.Args {
			args = append(args, renderExpr(a))
		}
		return x.Fn + "(" + strings.Join(args, ",") + ")"
	case LitExpr:
		return fmt.Sprint(x.Val)
	}
	return ""
}

// appendRowKey appends the DISTINCT identity of a row: the keys of its
// values in column order.
func appendRowKey(buf []byte, cols []string, row Row) []byte {
	for _, c := range cols {
		buf = appendKey(buf, row[c])
	}
	return buf
}

// appendKey appends a type-tagged, self-delimiting key of v to buf.
// Values of different kinds never share a key (5 and '5' differ);
// numbers key by value, as valueEq compares them, so 5 and 5.0 agree.
// A path's key is its start node plus its relationships, so zero-length
// paths from different nodes differ.
func appendKey(buf []byte, v Value) []byte {
	switch tv := v.(type) {
	case nil:
		return append(buf, '0')
	case *Node:
		return appendInt(append(buf, 'N'), int64(tv.ID))
	case Path:
		buf = append(buf, 'P')
		if len(tv.Nodes) > 0 {
			buf = appendInt(buf, int64(tv.Start().ID))
		}
		return appendRelKeys(buf, tv.Rels)
	case []*Rel:
		return appendRelKeys(append(buf, 'R'), tv)
	case string:
		buf = appendInt(append(buf, 'S'), int64(len(tv)))
		return append(buf, tv...)
	case bool:
		if tv {
			return append(buf, 'T')
		}
		return append(buf, 'F')
	case int64:
		return appendInt(append(buf, '#'), tv)
	case int:
		return appendInt(append(buf, '#'), int64(tv))
	case float64:
		if i := int64(tv); float64(i) == tv {
			return appendInt(append(buf, '#'), i)
		}
		buf = strconv.AppendFloat(append(buf, '#'), tv, 'g', -1, 64)
		return append(buf, ';')
	case []Value:
		buf = appendInt(append(buf, 'L'), int64(len(tv)))
		for _, e := range tv {
			buf = appendKey(buf, e)
		}
		return buf
	}
	s := fmt.Sprintf("%T:%v", v, v)
	buf = appendInt(append(buf, '?'), int64(len(s)))
	return append(buf, s...)
}

func appendRelKeys(buf []byte, rels []*Rel) []byte {
	buf = appendInt(buf, int64(len(rels)))
	for _, r := range rels {
		buf = appendInt(buf, r.ID)
	}
	return buf
}

// appendInt appends n terminated by ';'.
func appendInt(buf []byte, n int64) []byte {
	return append(strconv.AppendInt(buf, n, 10), ';')
}

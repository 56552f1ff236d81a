package budget

import (
	"strings"
	"time"
)

// PhaseUsage is the budget consumption of one pipeline phase: the
// cooperative steps, graph nodes/edges and wall-clock time charged
// while that phase was current. Per-phase accounting is what lets a
// report say *which* phase exhausted the budget (and lets a
// degradation ladder pick caps that target the hungry phase) instead
// of only knowing that one did.
type PhaseUsage struct {
	Phase string
	Steps int
	Nodes int
	Edges int
	Dur   time.Duration
}

// DetectPrefix starts the name of every traversal phase row: the
// scanner's detect-native and detect-query, the baseline's
// detect-odgen.
const DetectPrefix = "detect-"

// SplitTime splits a scan's phase rows into Table 6's two columns:
// traversal time is the sum of the detect-* rows, graph time the sum
// of every other row. The rows cover a scan contiguously, so the two
// add up to its analysis time.
func SplitTime(rows []PhaseUsage) (graph, traversal time.Duration) {
	for _, u := range rows {
		if strings.HasPrefix(u.Phase, DetectPrefix) {
			traversal += u.Dur
		} else {
			graph += u.Dur
		}
	}
	return graph, traversal
}

// phaseRows is the row capacity a phase log allocates up front: the
// scanner's seven phases (front-end, partition, reach-gate, analysis,
// stitch-link, detect-query, detect-native), which also covers the
// baseline's two.
const phaseRows = 7

// phaseLog accumulates PhaseUsage rows for one scan. It is owned by
// the scan goroutine (like the Budget itself) and shared with the
// budget DeadlineOnly derives, so a grace detection pass still lands
// in the same log.
type phaseLog struct {
	phases []PhaseUsage
	cur    string
	start  time.Time
	// owner is the budget whose counters the current phase's marks
	// were taken from; deltas are only meaningful against it.
	owner                           *Budget
	markSteps, markNodes, markEdges int
}

// current returns the phase name the log is in (nil-safe; "" when no
// phase was ever declared).
func (p *phaseLog) current() string {
	if p == nil {
		return ""
	}
	return p.cur
}

// closeCurrent folds the running phase's consumption into the log.
// Re-entered phase names (detection running again on a retry budget)
// accumulate into their existing row.
func (p *phaseLog) closeCurrent() {
	if p == nil || p.cur == "" || p.owner == nil {
		return
	}
	u := PhaseUsage{
		Phase: p.cur,
		Steps: p.owner.steps - p.markSteps,
		Nodes: p.owner.nodes - p.markNodes,
		Edges: p.owner.edges - p.markEdges,
		Dur:   time.Since(p.start),
	}
	for i := range p.phases {
		if p.phases[i].Phase == u.Phase {
			p.phases[i].Steps += u.Steps
			p.phases[i].Nodes += u.Nodes
			p.phases[i].Edges += u.Edges
			p.phases[i].Dur += u.Dur
			p.cur, p.owner = "", nil
			return
		}
	}
	p.phases = append(p.phases, u)
	p.cur, p.owner = "", nil
}

// BeginPhase declares that subsequent consumption belongs to the named
// pipeline phase, closing the previous one. Phase boundaries are
// orders of magnitude rarer than Step calls, so the time.Now here is
// noise.
func (b *Budget) BeginPhase(name string) {
	if b == nil {
		return
	}
	if b.plog == nil {
		b.plog = &phaseLog{phases: make([]PhaseUsage, 0, phaseRows)}
	}
	b.plog.closeCurrent()
	b.plog.cur = name
	b.plog.owner = b
	b.plog.start = time.Now()
	b.plog.markSteps, b.plog.markNodes, b.plog.markEdges = b.steps, b.nodes, b.edges
}

// PhaseUsages closes the running phase and returns the accumulated
// per-phase consumption in first-entered order (nil when the owner
// never declared phases).
func (b *Budget) PhaseUsages() []PhaseUsage {
	if b == nil || b.plog == nil {
		return nil
	}
	b.plog.closeCurrent()
	return b.plog.phases
}

// ExhaustedPhase returns the phase that was current when the budget's
// failure was recorded ("" while the budget holds or when no phases
// were declared).
func (b *Budget) ExhaustedPhase() string {
	if b == nil || b.failure == nil {
		return ""
	}
	return b.failure.Phase
}

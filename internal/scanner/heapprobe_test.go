package scanner

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// estimateFactor bounds how far EstimateBytes may stray from the heap
// the states retain, either way. The pool's -state-max-bytes eviction
// sizes states by the estimate, so an estimate off by more than this
// would let the daemon hold that many times its cap, or evict that
// much too early.
const estimateFactor = 2.0

// retainedHeap reports the live heap, after collecting garbage, that
// build's result holds, and the result. Two collections empty the
// sync.Pools (the graph pool among them) before each reading.
func retainedHeap(build func() []*IncrementalState) (int64, []*IncrementalState) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	states := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), states
}

// TestEstimateBytesTracksHeap: over warm states of ground-truth
// packages and of every dependency tree, the states' summed
// EstimateBytes is within estimateFactor of the heap they retain.
func TestEstimateBytesTracksHeap(t *testing.T) {
	vul, sec := dataset.GroundTruth(1)
	var flat [][]SourceFile
	for i, p := range append(slices.Clone(vul.Packages), sec.Packages...) {
		if i%3 == 0 {
			flat = append(flat, packageSources(p))
		}
	}
	var trees [][]SourceFile
	for range 4 { // several copies, so the trees' heap stands out of the noise
		for _, tc := range dataset.TreeCases() {
			trees = append(trees, treeSources(tc.Files))
		}
	}
	cases := []struct {
		name  string
		tree  bool
		files [][]SourceFile
	}{{"flat", false, flat}, {"tree", true, trees}}
	for _, c := range cases {
		heap, states := retainedHeap(func() []*IncrementalState {
			states := make([]*IncrementalState, len(c.files))
			for i, files := range c.files {
				states[i] = NewIncrementalState()
				ScanFiles(files, "probe", Options{Incremental: states[i], Tree: c.tree})
			}
			return states
		})
		var est int64
		for _, st := range states {
			est += st.EstimateBytes()
		}
		runtime.KeepAlive(states)
		if heap <= 0 {
			t.Fatalf("%s: %d states retain %d bytes", c.name, len(states), heap)
		}
		ratio := float64(est) / float64(heap)
		t.Logf("%s: %d states, estimate %d bytes, retained heap %d bytes, ratio %.2f", c.name, len(states), est, heap, ratio)
		if ratio > estimateFactor || ratio < 1/estimateFactor {
			t.Errorf("%s: estimate %d bytes is %.2f× the %d bytes the states retain; want within %.1f×",
				c.name, est, ratio, heap, estimateFactor)
		}
	}
}

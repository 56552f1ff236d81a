package metrics

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/scanner"
)

// TestSharedDefaultConfigUnchanged: every scan with a nil
// Options.Config reads the one shared default configuration
// (queries.OrDefault), so no layer may write to it. Ground-truth
// sweeps with every engine, warm and cold, must leave it bit-identical
// to what it was before and to a fresh DefaultConfig.
func TestSharedDefaultConfigUnchanged(t *testing.T) {
	shared := queries.OrDefault(nil)
	if queries.OrDefault(nil) != shared {
		t.Fatal("OrDefault(nil) returned two different configs")
	}
	before, err := json.Marshal(shared)
	if err != nil {
		t.Fatal(err)
	}
	vul, sec := dataset.GroundTruth(1)
	c := &dataset.Corpus{Name: "ground-truth", Packages: append(append([]*dataset.Package{}, vul.Packages...), sec.Packages...)}
	for _, opts := range []scanner.Options{
		{Workers: 2},
		{Workers: 2, Engine: scanner.EngineQuery},
		{Workers: 2, Engine: scanner.EngineDifferential},
	} {
		SweepGraphJS(c, opts)
	}
	SweepGraphJSIncremental(c, scanner.Options{Workers: 2}, scanner.NewStatePool())
	after, err := json.Marshal(shared)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("shared default changed by a sweep:\nbefore %s\n after %s", before, after)
	}
	if !reflect.DeepEqual(shared, queries.DefaultConfig()) {
		t.Fatalf("shared default %+v differs from DefaultConfig", shared)
	}
}

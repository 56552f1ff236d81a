package metrics

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/scanner"
	"repro/internal/sweepjournal"
)

// Journal-store chaos (`make chaos` runs this under -race): a
// supervised sweep whose journal log is killed mid-commit — the store
// log itself torn mid-record. The invariant: a resumed sweep converges
// to entry-for-entry the same journal as the uninterrupted run, with
// the damage visible only as re-scans and the Torn flag.
func TestChaosStoreKillResume(t *testing.T) {
	c := superviseCorpus()
	opts := scanner.Options{Workers: 4, Timeout: 30 * time.Second}

	// Ground truth: an uninterrupted journaled sweep.
	baseJournal := filepath.Join(t.TempDir(), "journal")
	if _, _, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: baseJournal}); err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	truth, _, err := sweepjournal.Load(baseJournal)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != len(c.Packages) {
		t.Fatalf("baseline journal holds %d entries for %d packages", len(truth), len(c.Packages))
	}

	// Kill mid-commit: the journal's log is torn mid-record. Opening it
	// repairs the tail, the lost entry re-scans cold, and the resumed
	// state converges to truth.
	t.Run("mid-commit", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "journal")
		if _, _, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: journal}); err != nil {
			t.Fatalf("sweep: %v", err)
		}
		logPath := filepath.Join(journal, "store.dat")
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(logPath, fi.Size()-7); err != nil {
			t.Fatal(err)
		}

		if got, _, err := sweepjournal.Load(journal); err != nil || len(got) != len(c.Packages)-1 {
			t.Fatalf("torn journal holds %d entries (err %v), want %d (one lost to the tear)",
				len(got), err, len(c.Packages)-1)
		}
		_, rstats, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: journal, Resume: true})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if !rstats.Torn {
			t.Error("resume did not report the torn journal log")
		}
		if rstats.Resumed != len(c.Packages)-1 {
			t.Errorf("resumed %d packages, want %d (exactly the torn entry re-scans)",
				rstats.Resumed, len(c.Packages)-1)
		}
		got, _, err := sweepjournal.Load(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(truth, got) {
			for k, want := range truth {
				if !reflect.DeepEqual(want, got[k]) {
					t.Errorf("%s: resumed entry differs:\n%+v\nvs truth\n%+v", k, got[k], want)
				}
			}
		}
	})
}

package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A budget with a live context behaves exactly like one without: the
// done channel is polled, never blocked on.
func TestWithContextLiveContextIsFree(t *testing.T) {
	b := New(Limits{MaxSteps: 1000}).WithContext(context.Background())
	for i := 0; i < 500; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("step %d failed under a live context: %v", i, err)
		}
	}
	if err := b.CheckDeadline(); err != nil {
		t.Fatalf("CheckDeadline failed under a live context: %v", err)
	}
}

// Once the context is done, the next CheckDeadline records a
// ClassCanceled failure and every later call keeps returning it.
func TestWithContextCancelTripsCheckDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(Limits{}).WithContext(ctx)
	if err := b.CheckDeadline(); err != nil {
		t.Fatalf("pre-cancel CheckDeadline: %v", err)
	}
	cancel()
	err := b.CheckDeadline()
	if err == nil {
		t.Fatal("CheckDeadline returned nil after cancel")
	}
	if ClassOf(err) != ClassCanceled {
		t.Fatalf("class = %v, want %v", ClassOf(err), ClassCanceled)
	}
	// Sticky, like every budget failure.
	if err2 := b.Step(); !errors.Is(err2, err) && err2 == nil {
		t.Fatal("Step after canceled failure returned nil")
	}
	if ClassOf(b.Err()) != ClassCanceled {
		t.Fatalf("Err class = %v, want %v", ClassOf(b.Err()), ClassCanceled)
	}
}

// Step observes cancellation at the deadlineEvery cadence even when no
// wall-clock deadline is configured.
func TestWithContextCancelTripsStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(Limits{}).WithContext(ctx)
	var err error
	for i := 0; i < 2*deadlineEvery && err == nil; i++ {
		err = b.Step()
	}
	if ClassOf(err) != ClassCanceled {
		t.Fatalf("Step never tripped on a canceled context (err=%v)", err)
	}
}

// The derived DeadlineOnly grace budget inherits the done channel: a
// canceled client cancels the grace phase too.
func TestWithContextPropagatesThroughDeriveAndDeadlineOnly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(Limits{MaxSteps: 10}).WithContext(ctx)
	cancel()
	if err := b.DeadlineOnly().CheckDeadline(); ClassOf(err) != ClassCanceled {
		t.Fatalf("DeadlineOnly dropped the context: %v", err)
	}
}

// Cancellation wins over an expired deadline: an abandoned request
// classifies as canceled, not timeout, so nothing about the package is
// concluded from it.
func TestCanceledBeatsExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(Limits{Timeout: time.Nanosecond}).WithContext(ctx)
	time.Sleep(time.Millisecond)
	if err := b.CheckDeadline(); ClassOf(err) != ClassCanceled {
		t.Fatalf("class = %v, want %v", ClassOf(b.Err()), ClassCanceled)
	}
}

// Guard passes canceled budget errors through with their class intact
// (the normalizer unwinds by panicking with the budget error).
func TestGuardPassesCanceledThrough(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(Limits{}).WithContext(ctx)
	err := Guard("phase", func() error {
		panic(b.CheckDeadline())
	})
	if ClassOf(err) != ClassCanceled {
		t.Fatalf("Guard reclassified canceled as %v", ClassOf(err))
	}
}

// A nil context and a nil receiver are both no-ops.
func TestWithContextNilSafety(t *testing.T) {
	var nb *Budget
	if nb.WithContext(context.Background()) != nil {
		t.Fatal("nil receiver should stay nil")
	}
	b := New(Limits{}).WithContext(nil)
	if err := b.CheckDeadline(); err != nil {
		t.Fatalf("nil ctx should be a no-op: %v", err)
	}
}

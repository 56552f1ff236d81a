// Package budget is the fault-containment substrate shared by every
// analysis engine: a per-scan Budget carrying a wall-clock deadline
// plus step/node/edge caps, checked cooperatively at the hot loops of
// the parser, normalizer, abstract interpreter, MDG construction,
// graph-database load, taint fixpoint, query traversals, and the
// ODGen unroller — and a failure taxonomy that classifies why a scan
// ended early (parse error, timeout, budget exhaustion, recovered
// engine panic, query error) so corpus sweeps report per-class counts
// instead of hanging or crashing on pathological packages.
//
// A Budget is cheap enough for per-statement checks: Step is a counter
// increment plus a nil test, and the deadline is only consulted every
// deadlineEvery steps (plus wherever CheckDeadline forces it, e.g. at
// phase boundaries). All methods are nil-receiver safe, so unbudgeted
// callers pass nil and pay a single branch.
//
// A Budget is owned by one scan and is not safe for concurrent use;
// per-package sweeps allocate one per package.
package budget

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Class labels why a scan ended early. The empty class means the scan
// ran to completion.
type Class string

// The failure taxonomy. ClassTimeout is the wall-clock deadline,
// ClassBudget a step/node/edge cap; both are classified outcomes, not
// errors. ClassParse, ClassPanic and ClassQuery accompany a non-nil
// error on the report.
const (
	ClassNone    Class = ""
	ClassParse   Class = "parse-error"
	ClassResolve Class = "resolve-error"
	ClassTimeout Class = "timeout"
	ClassBudget  Class = "budget-exceeded"
	ClassPanic   Class = "engine-panic"
	ClassQuery   Class = "query-error"
	// ClassCanceled means the request context attached via WithContext
	// was done (client disconnected, server shutdown) before the scan
	// finished. Unlike ClassTimeout it says nothing about the package:
	// the same input scanned again with a live client is expected to
	// succeed, so supervisors journal it as retryable and caches must
	// never store a canceled result as a clean one.
	ClassCanceled Class = "canceled"
)

// Classes lists the failure classes in reporting order. ClassResolve
// is a dependency-tree resolution failure (missing or broken
// node_modules entry): like ClassParse it is deterministic — retrying
// with a different engine or budget cannot fix the tree on disk.
var Classes = []Class{ClassParse, ClassResolve, ClassTimeout, ClassBudget, ClassPanic, ClassQuery, ClassCanceled}

// String renders the class for tables ("ok" for ClassNone).
func (c Class) String() string {
	if c == ClassNone {
		return "ok"
	}
	return string(c)
}

// Limits configures a Budget. Zero values mean unlimited.
type Limits struct {
	// Timeout is the wall-clock allowance for the whole scan.
	Timeout time.Duration
	// MaxSteps caps cooperative steps (statements parsed, abstract
	// steps interpreted, fixpoint states popped, nodes traversed...).
	MaxSteps int
	// MaxNodes / MaxEdges cap graph construction (MDG allocation).
	MaxNodes int
	MaxEdges int
}

// deadlineEvery is how many Steps pass between wall-clock reads;
// time.Now costs ~50ns, so the amortized overhead stays ~1ns/step.
const deadlineEvery = 64

// Budget enforces Limits for one scan. The zero value (and nil) is an
// unlimited budget.
type Budget struct {
	limits   Limits
	deadline time.Time

	steps, nodes, edges int
	failure             *Error

	// label identifies the scan (package name, plus an attempt suffix
	// under a sweep supervisor); the fault-injection plan keys its
	// deterministic decisions on it.
	label string
	// checks counts injection decision points consumed so far, so an
	// injection decision depends only on (plan seed, label, ordinal) —
	// never on goroutine interleaving. inj is the resolved decision.
	checks int
	inj    injection
	// plog accumulates per-phase consumption; shared with the budget
	// derived via DeadlineOnly so the grace detection pass lands in the
	// same report.
	plog *phaseLog

	// done is the request context's cancellation channel (nil when no
	// context is attached). It is polled — never blocked on — at the
	// same cooperative checkpoints as the deadline, so cancellation
	// costs nothing extra on the hot path and needs no watcher
	// goroutine.
	done <-chan struct{}
}

// New starts a budget: the deadline clock begins now.
func New(l Limits) *Budget {
	b := &Budget{limits: l}
	if l.Timeout > 0 {
		b.deadline = time.Now().Add(l.Timeout)
	}
	return b
}

// SetLabel names the scan this budget belongs to (used to seed
// deterministic fault injection and to phase-stamp errors).
func (b *Budget) SetLabel(label string) {
	if b != nil {
		b.label = label
	}
}

// WithContext attaches a request context: once ctx is done, the next
// cooperative checkpoint (Step's every-deadlineEvery tick, or any
// CheckDeadline at a phase boundary) records a ClassCanceled failure
// and every later budget call keeps returning it, unwinding the scan
// exactly the way an expired deadline does. A nil ctx (or nil
// receiver) is a no-op; the returned budget is b, for chaining.
func (b *Budget) WithContext(ctx context.Context) *Budget {
	if b != nil && ctx != nil {
		b.done = ctx.Done()
	}
	return b
}

// DeadlineOnly derives a budget that keeps this one's wall-clock
// deadline but drops the step/node/edge caps and the recorded failure.
// The scanner uses it to compute findings-so-far on a partial MDG
// after a cap was hit, without letting that grace phase run past the
// original deadline.
func (b *Budget) DeadlineOnly() *Budget {
	if b == nil {
		return nil
	}
	return &Budget{deadline: b.deadline, limits: Limits{Timeout: b.limits.Timeout},
		label: b.label, plog: b.plog, done: b.done}
}

// Step consumes one cooperative step. It returns the recorded failure
// (always an *Error) once a limit is hit, and keeps returning it on
// every later call so hot loops can simply propagate.
func (b *Budget) Step() error {
	if b == nil {
		return nil
	}
	if b.failure != nil {
		return b.failure
	}
	b.steps++
	if b.limits.MaxSteps > 0 && b.steps > b.limits.MaxSteps {
		return b.fail(ClassBudget, "steps", b.limits.MaxSteps)
	}
	if b.steps%deadlineEvery == 0 {
		if err := b.maybeInject(); err != nil {
			return err
		}
		if b.done != nil || !b.deadline.IsZero() {
			return b.checkWall()
		}
	}
	return nil
}

// AddNode charges one graph node against MaxNodes.
func (b *Budget) AddNode() error {
	if b == nil {
		return nil
	}
	if b.failure != nil {
		return b.failure
	}
	b.nodes++
	if b.limits.MaxNodes > 0 && b.nodes > b.limits.MaxNodes {
		return b.fail(ClassBudget, "nodes", b.limits.MaxNodes)
	}
	return nil
}

// AddEdge charges one graph edge against MaxEdges.
func (b *Budget) AddEdge() error {
	if b == nil {
		return nil
	}
	if b.failure != nil {
		return b.failure
	}
	b.edges++
	if b.limits.MaxEdges > 0 && b.edges > b.limits.MaxEdges {
		return b.fail(ClassBudget, "edges", b.limits.MaxEdges)
	}
	return nil
}

// CheckDeadline reads the wall clock — and polls the attached
// context, if any — unconditionally (phase boundaries call this so
// even a scan that never ticks a hot loop notices an expired deadline
// or a gone client).
func (b *Budget) CheckDeadline() error {
	if b == nil {
		return nil
	}
	if b.failure != nil {
		return b.failure
	}
	if err := b.maybeInject(); err != nil {
		return err
	}
	if b.done == nil && b.deadline.IsZero() {
		return nil
	}
	return b.checkWall()
}

// checkWall is the shared wall-clock checkpoint: cancellation is
// consulted before the deadline so a request that is both expired and
// abandoned classifies as canceled (the client is gone; nothing about
// the package is learned).
func (b *Budget) checkWall() error {
	if b.done != nil {
		select {
		case <-b.done:
			return b.fail(ClassCanceled, "request context", 0)
		default:
		}
	}
	if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
		return b.fail(ClassTimeout, "wall clock", int(b.limits.Timeout/time.Millisecond))
	}
	return nil
}

func (b *Budget) fail(c Class, resource string, limit int) error {
	if b.failure == nil {
		b.failure = &Error{Class: c, Resource: resource, Limit: limit, Phase: b.plog.current()}
	}
	return b.failure
}

// Err returns the first recorded limit failure, or nil while the
// budget holds. (Returned as an untyped nil so `if b.Err() != nil`
// behaves.)
func (b *Budget) Err() error {
	if b == nil || b.failure == nil {
		return nil
	}
	return b.failure
}

// Exceeded reports whether any limit has been hit.
func (b *Budget) Exceeded() bool { return b != nil && b.failure != nil }

// Nodes returns the graph nodes charged so far.
func (b *Budget) Nodes() int {
	if b == nil {
		return 0
	}
	return b.nodes
}

// Edges returns the graph edges charged so far.
func (b *Budget) Edges() int {
	if b == nil {
		return 0
	}
	return b.edges
}

// Error is a classified limit failure: which resource ran out, what
// its cap was, and which pipeline phase was running when it tripped
// ("" when the owner never declared phases). Its Class is ClassTimeout
// for the wall clock and ClassBudget for every counted cap.
type Error struct {
	Class    Class
	Resource string
	Limit    int
	Phase    string
}

func (e *Error) Error() string {
	in := ""
	if e.Phase != "" {
		in = " in " + e.Phase
	}
	if e.Class == ClassTimeout {
		return fmt.Sprintf("budget: wall-clock deadline exceeded%s (%dms)", in, e.Limit)
	}
	if e.Class == ClassCanceled {
		return fmt.Sprintf("budget: scan canceled%s (request context done)", in)
	}
	return fmt.Sprintf("budget: %s limit exceeded%s (%d)", e.Resource, in, e.Limit)
}

// PanicError is a recovered engine crash: the phase it happened in,
// the panic value, and the stack at the recovery point.
type PanicError struct {
	Phase string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("budget: panic in %s: %v", e.Phase, e.Value)
}

// Guard runs one engine phase with panic isolation: a panic inside f
// becomes a *PanicError instead of crashing the process (or a whole
// corpus sweep). Cooperative aborts that unwind by panicking with a
// budget error (the normalizer does this, having no error returns)
// pass through with their classification intact rather than being
// relabelled as panics.
func Guard(phase string, f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok {
			var be *Error
			if errors.As(e, &be) {
				err = e
				return
			}
		}
		err = &PanicError{Phase: phase, Value: r, Stack: debug.Stack()}
	}()
	return f()
}

// ClassOf classifies an error: budget errors carry their own class,
// recovered panics are ClassPanic, nil is ClassNone, and anything else
// returns ClassNone so the caller applies its phase default (parse
// errors in the front end, query errors in detection).
func ClassOf(err error) Class {
	if err == nil {
		return ClassNone
	}
	var be *Error
	if errors.As(err, &be) {
		return be.Class
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return ClassPanic
	}
	return ClassNone
}

package jobs

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipesim/internal/eventbus"
)

// collectEvents drains a subscriber into a slice (buffered events only).
func collectEvents(s *eventbus.Subscriber) []eventbus.Event {
	var out []eventbus.Event
	for {
		ev, ok := s.Pop()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// collectThrough drains a subscriber until an event of the given kind has
// been popped, waiting up to 30s for it, then returns everything drained.
// The manager publishes job.end just after the job turns terminal, so a
// test that polled for the terminal state can get there first.
func collectThrough(t *testing.T, s *eventbus.Subscriber, kind string) []eventbus.Event {
	t.Helper()
	var out []eventbus.Event
	deadline := time.After(30 * time.Second)
	for {
		for ev, ok := s.Pop(); ok; ev, ok = s.Pop() {
			out = append(out, ev)
			if ev.Kind == kind {
				return append(out, collectEvents(s)...)
			}
		}
		select {
		case <-s.Wait():
		case <-deadline:
			t.Fatalf("no %s event within 30s (drained %d events)", kind, len(out))
		}
	}
}

// TestJobPublishesLifecycleAndOutcomes runs a small job to completion
// with a bus attached and checks the event trail: queued → start → one
// point.ok + ckpt.append per point (with dense, unique outcome-log
// indexes) → end, plus sweep.experiment progress from the runner
// underneath.
func TestJobPublishesLifecycleAndOutcomes(t *testing.T) {
	bus := eventbus.New()
	sub := bus.Subscribe(eventbus.SubOptions{Buffer: 1024})
	defer sub.Close()

	m := newTestManager(t, Options{Events: bus})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, v.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}

	kinds := map[string]int{}
	indexes := map[int]string{}
	for _, ev := range collectThrough(t, sub, KindJobEnd) {
		if ev.Job != v.ID {
			t.Errorf("event %s carries job %q, want %q", ev.Kind, ev.Job, v.ID)
		}
		kinds[ev.Kind]++
		if ev.Kind == KindPointOK {
			o := ev.Data.(PointOutcome)
			if o.Outcome != PointOK || o.Cycles == 0 || !o.Valid {
				t.Errorf("point.ok payload: %+v", o)
			}
			if prev, dup := indexes[o.Index]; dup {
				t.Errorf("index %d used by both %s and %s", o.Index, prev, o.Point)
			}
			indexes[o.Index] = o.Point
		}
	}
	for kind, want := range map[string]int{
		KindJobQueued: 1, KindJobStart: 1, KindJobEnd: 1,
		KindPointOK: 4, KindCkptAppend: 4, "sweep.experiment": 4,
	} {
		if kinds[kind] != want {
			t.Errorf("saw %d %s events, want %d (all: %v)", kinds[kind], kind, want, kinds)
		}
	}
	// Indexes are the dense ledger 1..4.
	for i := 1; i <= 4; i++ {
		if _, ok := indexes[i]; !ok {
			t.Errorf("no point.ok carried index %d (got %v)", i, indexes)
		}
	}

	// The checkpoint records persist the same indexes (Seq), and the
	// Outcomes accessor serves the same ledger.
	recs, err := ReadCheckpoint(m.ckptPath(v.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if indexes[r.Seq] != r.Point {
			t.Errorf("checkpoint %s has seq %d; the bus published that index for %q",
				r.Point, r.Seq, indexes[r.Seq])
		}
	}
	log, view, err := m.Outcomes(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 4 || view.State != StateDone {
		t.Fatalf("Outcomes returned %d entries, state %s", len(log), view.State)
	}
	for i, e := range log {
		if e.Index != i+1 || e.Outcome != PointOK {
			t.Errorf("log entry %d = %+v", i, e)
		}
		if indexes[e.Index] != e.Point {
			t.Errorf("log entry %d binds %s, bus published %s", e.Index, e.Point, indexes[e.Index])
		}
	}
	// The after cursor cuts exactly.
	tail, _, err := m.Outcomes(v.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Index != 3 {
		t.Fatalf("Outcomes(after=2) = %+v", tail)
	}
	if _, _, err := m.Outcomes("nope", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Outcomes on unknown job: %v", err)
	}
}

// TestRetryAndFailureEvents drives one point through retries into
// terminal failure and checks the transient/ledger split: retry events
// carry no index, the single point.failed does, and the failed entry is
// in the outcome log.
func TestRetryAndFailureEvents(t *testing.T) {
	bus := eventbus.New()
	sub := bus.Subscribe(eventbus.SubOptions{Buffer: 1024, Kinds: []string{"point", "job"}})
	defer sub.Close()

	failing := "conv/128"
	m := newTestManager(t, Options{
		Events:       bus,
		PointWorkers: 1,
		InjectFault: func(jobID, pointID string, attempt int) error {
			if pointID == failing {
				return errors.New("injected fault")
			}
			return nil
		},
	})
	v, err := m.Submit(Spec{
		Grid:        &GridSpec{Variants: []string{"conv"}, CacheSizes: []int{128, 256}},
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, v.ID)
	if fin.State != StateFailed || len(fin.FailedPoints) != 1 {
		t.Fatalf("job finished %s with %d failed points", fin.State, len(fin.FailedPoints))
	}

	var retries, failed, backoffs int
	for _, ev := range collectEvents(sub) {
		switch ev.Kind {
		case KindPointRetry:
			o := ev.Data.(PointOutcome)
			if o.Index != 0 || o.Error == "" {
				t.Errorf("retry event should be transient with an error: %+v", o)
			}
			retries++
		case KindPointFailed:
			o := ev.Data.(PointOutcome)
			if o.Index == 0 || o.Point != failing || o.Attempts != 3 {
				t.Errorf("point.failed payload: %+v", o)
			}
			failed++
		case KindJobBackoff:
			b := ev.Data.(BackoffEvent)
			if b.Pending < 1 || b.Round < 1 {
				t.Errorf("backoff payload: %+v", b)
			}
			backoffs++
		case KindJobEnd:
			e := ev.Data.(JobEvent)
			if e.State != StateFailed || e.FailedPoints != 1 {
				t.Errorf("job.end payload: %+v", e)
			}
		}
	}
	if retries != 2 || failed != 1 {
		t.Errorf("saw %d retries and %d failures, want 2 and 1", retries, failed)
	}
	if backoffs != 2 {
		t.Errorf("saw %d backoff events, want 2 (one per retry round)", backoffs)
	}

	// The ledger holds 3 entries: 2 ok + 1 failed... the failing point
	// plus the passing one. (2 cache sizes: one ok, one failed.)
	log, _, err := m.Outcomes(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var okN, failN int
	for _, e := range log {
		switch e.Outcome {
		case PointOK:
			okN++
		case PointFailed:
			failN++
		default:
			t.Errorf("unexpected ledger outcome %q", e.Outcome)
		}
	}
	if okN != 1 || failN != 1 {
		t.Errorf("ledger has %d ok / %d failed, want 1/1 (%+v)", okN, failN, log)
	}
}

// TestOutcomeLogSurvivesKillResume is the event-layer extension of
// TestJobSoakKillResume: the outcome-log indexes a consumer saw before
// the "crash" must bind to the same points after recovery, so that a
// Last-Event-ID resume delivers exactly the missing outcomes — no
// duplicates, no gaps.
func TestOutcomeLogSurvivesKillResume(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	spec := testSpec()
	dir := t.TempDir()
	saveJobsDirArtifact(t, "events-soak-jobs-dir", dir)

	busA := eventbus.New()
	subA := busA.Subscribe(eventbus.SubOptions{Buffer: 1024, Kinds: []string{"point"}})

	var calls atomic.Int64
	var reachedOnce sync.Once
	reached := make(chan struct{})
	release := make(chan struct{})
	mA, err := New(Options{
		Dir:          dir,
		PointWorkers: 1,
		Backoff:      fastBackoff,
		Logger:       log,
		Events:       busA,
		InjectFault: func(jobID, pointID string, attempt int) error {
			if calls.Add(1) <= 2 {
				return nil
			}
			reachedOnce.Do(func() { close(reached) })
			<-release
			return errors.New("injected worker kill")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	<-reached
	closeCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	closeErr := make(chan error, 1)
	go func() { closeErr <- mA.Close(closeCtx) }()
	for mA.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closeErr; err != nil {
		t.Fatalf("draining the chaos manager: %v", err)
	}

	// What the pre-crash consumer observed: point.ok events with ledger
	// indexes.
	seen := map[int]string{} // index -> point
	lastID := 0
	for _, ev := range collectEvents(subA) {
		if ev.Kind != KindPointOK {
			continue
		}
		o := ev.Data.(PointOutcome)
		seen[o.Index] = o.Point
		if o.Index > lastID {
			lastID = o.Index
		}
	}
	subA.Close()
	if len(seen) != 2 {
		t.Fatalf("pre-crash consumer saw %d point.ok events, want 2 (%v)", len(seen), seen)
	}

	// The checkpoint carries those same indexes.
	recs, err := ReadCheckpoint(filepath.Join(dir, v.ID+".ckpt.jsonl"), log)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if seen[r.Seq] != r.Point {
			t.Errorf("checkpoint seq %d -> %s; consumer saw index %d as %q",
				r.Seq, r.Point, r.Seq, seen[r.Seq])
		}
	}

	// "Restart": recover on a fresh manager + fresh bus and resume the
	// consumer from lastID, the Last-Event-ID workflow.
	busB := eventbus.New()
	subB := busB.Subscribe(eventbus.SubOptions{Buffer: 1024, Kinds: []string{"point"}, Job: v.ID})
	defer subB.Close()
	mB := newTestManager(t, Options{Dir: dir, Events: busB})
	if _, err := mB.Recover(); err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, mB, v.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job finished %s (%s)", fin.State, fin.Error)
	}

	// Replay the ledger past the consumer's cursor...
	replay, _, err := mB.Outcomes(v.ID, lastID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range replay {
		if prev, dup := seen[e.Index]; dup {
			t.Errorf("replayed index %d already seen as %q", e.Index, prev)
		}
		seen[e.Index] = e.Point
	}
	// ...and fold in the live events, deduplicating by index exactly as
	// the SSE handler does. point.resumed events re-announce replayed
	// entries under their original indexes, so they must all dedupe.
	for _, ev := range collectEvents(subB) {
		o, ok := ev.Data.(PointOutcome)
		if !ok || o.Index == 0 {
			continue
		}
		if p, dup := seen[o.Index]; dup {
			if p != o.Point {
				t.Errorf("live index %d -> %s conflicts with %q", o.Index, o.Point, p)
			}
			continue // already delivered: dedupe by index
		}
		if o.Index <= lastID {
			t.Errorf("live event index %d at or below the cursor %d was never seen", o.Index, lastID)
			continue
		}
		seen[o.Index] = o.Point
	}

	// Exactly once: all four points, indexes 1..4, no conflicts.
	if len(seen) != 4 {
		t.Fatalf("consumer union saw %d outcomes, want 4: %v", len(seen), seen)
	}
	points := map[string]bool{}
	for i := 1; i <= 4; i++ {
		p, ok := seen[i]
		if !ok {
			t.Errorf("no outcome with index %d", i)
			continue
		}
		if points[p] {
			t.Errorf("point %s observed under two indexes", p)
		}
		points[p] = true
	}
}

// TestTerminalJobLedgerReloads checks that a finished job reloaded by a
// fresh manager serves its outcome log (from checkpoint Seq), so SSE
// replays of finished jobs keep their original event IDs.
func TestTerminalJobLedgerReloads(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Options{Dir: dir})
	v, err := m1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m1, v.ID); fin.State != StateDone {
		t.Fatalf("setup job finished %s", fin.State)
	}
	log1, _, err := m1.Outcomes(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{Dir: dir})
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	log2, view, err := m2.Outcomes(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateDone {
		t.Fatalf("reloaded job state %s", view.State)
	}
	if len(log2) != len(log1) {
		t.Fatalf("reloaded ledger has %d entries, original %d", len(log2), len(log1))
	}
	for i := range log2 {
		if log2[i].Index != log1[i].Index || log2[i].Point != log1[i].Point {
			t.Errorf("ledger entry %d: reloaded (%d,%s), original (%d,%s)",
				i, log2[i].Index, log2[i].Point, log1[i].Index, log1[i].Point)
		}
		if log2[i].Outcome != PointResumed || !log2[i].FromCheckpoint {
			t.Errorf("reloaded entry %d not marked resumed-from-checkpoint: %+v", i, log2[i])
		}
	}
}

package flight

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"indbml/internal/engine/sql"
)

// register enters text into r's live registry as its statement path does:
// read once by sql.ParseNormalized.
func register(r *Recorder, text, session string, cancel context.CancelFunc) *LiveQuery {
	return r.Register(sql.ParseNormalized(text, false), session, 0, cancel)
}

// begin opens the flight of a statement registered as an embedded one.
func begin(r *Recorder, text, kind, approach string) *Flight {
	return r.BeginFor(register(r, text, "embedded", nil), kind, approach)
}

// TestLiveRegistry: Register enters a statement before admission, Live
// snapshots it ordered by ID, Unregister removes it idempotently.
func TestLiveRegistry(t *testing.T) {
	r := NewRecorder(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	q1 := register(r, "SELECT 1", "embedded", cancel)
	q2 := register(r, "SELECT 2", "127.0.0.1:99", cancel)
	if q1.ID() == 0 || q2.ID() <= q1.ID() {
		t.Fatalf("IDs not allocated ascending: %d, %d", q1.ID(), q2.ID())
	}
	if q1.State() != "queued" {
		t.Errorf("fresh entry state = %q, want queued", q1.State())
	}
	live := r.Live()
	if len(live) != 2 || live[0] != q1 || live[1] != q2 {
		t.Fatalf("Live() = %v entries, want [q1 q2]", len(live))
	}
	if live[1].Session() != "127.0.0.1:99" {
		t.Errorf("session = %q", live[1].Session())
	}

	r.Unregister(q1)
	r.Unregister(q1) // idempotent
	if got := r.Live(); len(got) != 1 || got[0] != q2 {
		t.Fatalf("after unregister, Live() has %d entries", len(got))
	}
	_ = ctx
}

// TestLiveAdoption: BeginFor adopts the live entry — the flight publishes
// under the live entry's query ID, flips its state to running, and Finish
// unregisters it and fires its cancel.
func TestLiveAdoption(t *testing.T) {
	r := NewRecorder(8)
	canceled := false
	q := register(r, "SELECT * FROM t WHERE x = 42", "embedded", func() { canceled = true })

	fl := r.BeginFor(q, "select", "sql")
	if fl.ID() != q.ID() {
		t.Fatalf("flight ID %d != live ID %d", fl.ID(), q.ID())
	}
	if q.State() != "running" {
		t.Errorf("state after BeginFor = %q, want running", q.State())
	}
	fl.Finish(nil)
	if len(r.Live()) != 0 {
		t.Error("live entry not unregistered by Finish")
	}
	if !canceled {
		t.Error("Finish did not release the statement's cancel")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].ID != q.ID() {
		t.Fatalf("published summary ID mismatch: %+v", snap)
	}
	// The fingerprint computed at registration rides through adoption.
	wantFP, _ := sql.Normalize("SELECT * FROM t WHERE x = 42")
	if snap[0].Fingerprint != wantFP {
		t.Errorf("fingerprint = %x, want %x", snap[0].Fingerprint, wantFP)
	}
}

// TestKill: Recorder.Kill cancels the victim's context, flips its state to
// "killed", and errors for unknown IDs.
func TestKill(t *testing.T) {
	r := NewRecorder(8)
	ctx, cancel := context.WithCancel(context.Background())
	q := register(r, "SELECT 1", "embedded", cancel)

	if err := r.Kill(q.ID() + 100); err == nil {
		t.Error("Kill of unknown ID did not error")
	}
	if err := r.Kill(q.ID()); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("victim context not canceled")
	}
	if q.State() != "killed" {
		t.Errorf("state after kill = %q, want killed", q.State())
	}
	q.Kill() // idempotent
}

// TestStatsSurviveRingWrap: the cumulative statement-stats store is fed at
// the publish point, so a shape's call count keeps climbing after the ring
// has overwritten every one of its summaries.
func TestStatsSurviveRingWrap(t *testing.T) {
	r := NewRecorder(4)

	const shape = "SELECT * FROM t WHERE x = 1"
	for i := 0; i < 3; i++ {
		fl := begin(r, shape, "select", "sql")
		fl.Finish(nil)
	}
	// Flush the ring with distinct statements so no summary of the shape
	// survives.
	for i := 0; i < 8; i++ {
		fl := begin(r, fmt.Sprintf("SELECT %d FROM other_%d", i, i), "select", "sql")
		fl.Finish(nil)
	}
	fp, norm := sql.Normalize(shape)
	for _, s := range r.Snapshot() {
		if s.Fingerprint == fp {
			t.Fatal("test setup broken: shape summary still in ring")
		}
	}
	var row *StatRow
	for _, got := range r.Stats().Snapshot() {
		if got.Fingerprint == fp {
			r := got
			row = &r
		}
	}
	if row == nil {
		t.Fatal("shape missing from statement stats after ring wrap")
	}
	if row.Calls != 3 {
		t.Errorf("calls = %d, want 3", row.Calls)
	}
	if row.NormSQL != norm {
		t.Errorf("exemplar = %q, want %q", row.NormSQL, norm)
	}
}

// TestStatsKeepLongStatementsApart: the fingerprint covers the whole
// statement, while the retained text stops at
// maxSQLLen, so two statements equal in their first maxSQLLen bytes are
// two rows.
func TestStatsKeepLongStatementsApart(t *testing.T) {
	r := NewRecorder(8)
	head := "SELECT a FROM t WHERE " + strings.Repeat("a = b AND ", maxSQLLen/10)
	for _, text := range []string{head + "c = d", head + "c < d"} {
		q := register(r, text, "embedded", nil)
		r.BeginFor(q, "select", "sql").Finish(nil)
		begin(r, text, "select", "sql").Finish(nil)
	}
	rows := r.Stats().Snapshot()
	if len(rows) != 2 {
		t.Fatalf("statement_stats rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Calls != 2 || len(row.NormSQL) > maxSQLLen {
			t.Errorf("row %x: %d calls, %d-byte exemplar; want 2 calls, at most %d bytes", row.Fingerprint, row.Calls, len(row.NormSQL), maxSQLLen)
		}
	}
	for _, s := range r.Snapshot() {
		if len(s.SQL) != maxSQLLen {
			t.Errorf("summary %d keeps %d bytes of SQL, want %d", s.ID, len(s.SQL), maxSQLLen)
		}
	}
}

// TestLongStatementsNotPinned: a retained summary or live entry keeps
// maxSQLLen bytes of its statement, not the whole text.
func TestLongStatementsNotPinned(t *testing.T) {
	r := NewRecorder(16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var live []*LiveQuery
	for i := 0; i < 16; i++ {
		text := fmt.Sprintf("SELECT %d FROM t WHERE a IN (%s0)", i, strings.Repeat("1, ", 1<<16))
		begin(r, text, "select", "sql").Finish(nil)
		live = append(live, register(r, text, "embedded", nil))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 2<<20 {
		t.Errorf("heap grew %d bytes holding 32 records of 192 KiB statements", grown)
	}
	runtime.KeepAlive(live)
}

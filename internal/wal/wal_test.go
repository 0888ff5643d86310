package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// storeBytes is the byte-identity currency: two stores whose SaveBinary
// streams match hold exactly the same trajectories (same float bits, same
// uncertainty model).
func storeBytes(t testing.TB, st *mod.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.SaveBinary(&buf); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	return buf.Bytes()
}

func newStore(t testing.TB, n int) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(1.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for oid := int64(1); oid <= int64(n); oid++ {
		verts := []trajectory.Vertex{
			{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: 0},
			{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: 10 + rng.Float64()},
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// batches returns deterministic update batches against a store built by
// newStore(t, n): extensions, revisions, and inserts of new OIDs.
func batches(rng *rand.Rand, n, count, perBatch int) [][]mod.Update {
	out := make([][]mod.Update, count)
	next := int64(n + 1)
	tEnd := make(map[int64]float64)
	for b := range out {
		batch := make([]mod.Update, 0, perBatch)
		for i := 0; i < perBatch; i++ {
			var u mod.Update
			switch rng.Intn(3) {
			case 0: // extend an existing object past its plan end
				oid := int64(1 + rng.Intn(n))
				t0 := 12.0 + float64(b)
				if e, ok := tEnd[oid]; ok && e >= t0 {
					t0 = e + 0.5
				}
				tEnd[oid] = t0
				u = mod.Update{OID: oid, Verts: []trajectory.Vertex{{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: t0}}}
			case 1: // revise mid-plan
				oid := int64(1 + rng.Intn(n))
				t0 := 5 + rng.Float64()
				if e, ok := tEnd[oid]; ok && e >= t0 {
					t0 = e + 0.5
				}
				tEnd[oid] = t0 + 1
				u = mod.Update{OID: oid, Verts: []trajectory.Vertex{
					{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: t0},
					{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: t0 + 1},
				}}
			default: // insert a new object
				u = mod.Update{OID: next, Verts: []trajectory.Vertex{
					{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: 0},
					{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: 9 + rng.Float64()},
				}}
				next++
			}
			batch = append(batch, u)
		}
		out[b] = batch
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, batch := range batches(rng, 10, 5, 4) {
		enc, err := AppendRecord(nil, batch)
		if err != nil {
			t.Fatalf("AppendRecord: %v", err)
		}
		dec, n, err := decodeRecord(enc, 3)
		if err != nil {
			t.Fatalf("decodeRecord: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if len(dec) != len(batch) {
			t.Fatalf("decoded %d updates, want %d", len(dec), len(batch))
		}
		for i := range dec {
			if dec[i].OID != batch[i].OID || len(dec[i].Verts) != len(batch[i].Verts) {
				t.Fatalf("update %d mismatch: %+v vs %+v", i, dec[i], batch[i])
			}
			for j := range dec[i].Verts {
				if dec[i].Verts[j] != batch[i].Verts[j] {
					t.Fatalf("update %d vertex %d: %+v vs %+v", i, j, dec[i].Verts[j], batch[i].Verts[j])
				}
			}
		}
	}
}

func TestRecordEmptyBatch(t *testing.T) {
	enc, err := AppendRecord(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, n, err := decodeRecord(enc, 3)
	if err != nil || n != len(enc) || len(dec) != 0 {
		t.Fatalf("empty batch: dec=%v n=%d err=%v", dec, n, err)
	}
}

// TestRecoverEqualsLive appends batches while applying them to a live
// store and checks Recover reproduces the live store byte-for-byte at
// every step — including through an automatic snapshot rotation.
func TestRecoverEqualsLive(t *testing.T) {
	dir := t.TempDir()
	live := newStore(t, 12)
	l, err := Create(dir, live, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(3))
	for bi, batch := range batches(rng, 12, 10, 3) {
		if err := l.Append(batch); err != nil {
			t.Fatalf("batch %d: Append: %v", bi, err)
		}
		if _, err := live.ApplyUpdates(batch); err != nil {
			t.Fatalf("batch %d: apply: %v", bi, err)
		}
		if err := l.MaybeSnapshot(live); err != nil {
			t.Fatalf("batch %d: MaybeSnapshot: %v", bi, err)
		}
		rec, info, err := Recover(dir)
		if err != nil {
			t.Fatalf("batch %d: Recover: %v", bi, err)
		}
		if info.Torn {
			t.Fatalf("batch %d: unexpected torn tail", bi)
		}
		if got := info.Seq(); got != uint64(bi+1) {
			t.Fatalf("batch %d: recovered seq %d", bi, got)
		}
		if !bytes.Equal(storeBytes(t, rec), storeBytes(t, live)) {
			t.Fatalf("batch %d: recovered store differs from live store", bi)
		}
	}
	// The rotation must have happened and GC'd the first generation.
	snaps, logs, err := listState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(logs) != 1 || snaps[0] == 0 {
		t.Fatalf("expected one rotated generation, got snaps=%v logs=%v", snaps, logs)
	}
}

// TestRecoverMidBatchError checks the replay contract on batches the live
// path only partially applied: the recovered store must hold the same
// applied prefix.
func TestRecoverMidBatchError(t *testing.T) {
	dir := t.TempDir()
	live := newStore(t, 4)
	l, err := Create(dir, live, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bad := []mod.Update{
		{OID: 1, Verts: []trajectory.Vertex{{X: 1, Y: 1, T: 20}}}, // fine: extension
		{OID: 99, Verts: []trajectory.Vertex{{X: 2, Y: 2, T: 0}}}, // ErrShortInsert: unknown OID, 1 vertex
		{OID: 2, Verts: []trajectory.Vertex{{X: 3, Y: 3, T: 21}}}, // never applied live
	}
	if err := l.Append(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := live.ApplyUpdates(bad); !errors.Is(err, mod.ErrShortInsert) {
		t.Fatalf("want ErrShortInsert from live apply, got %v", err)
	}
	rec, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeBytes(t, rec), storeBytes(t, live)) {
		t.Fatal("recovered store differs from live store after mid-batch error")
	}
}

// TestTornFinalRecord truncates the log at every byte inside the final
// record: recovery must drop exactly that record, report Torn, and match
// the store with one fewer batch. Cutting at the record boundary is a
// clean (non-torn) recovery.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	base := newStore(t, 8)
	l, err := Create(dir, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	bs := batches(rng, 8, 3, 2)
	want := [][]byte{storeBytes(t, base)} // state after 0, 1, ... batches
	for _, batch := range bs {
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := base.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, storeBytes(t, base))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logName(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Find the last record's start offset by walking the frames.
	off := len(walMagic)
	lastStart := off
	for {
		_, n, err := decodeRecord(raw[off:], 3)
		if err != nil || n == 0 {
			break
		}
		lastStart = off
		off += n
	}
	if off != len(raw) {
		t.Fatalf("frame walk ended at %d of %d", off, len(raw))
	}
	for cut := lastStart; cut <= len(raw); cut++ {
		sub := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(snapName(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapName(sub, 0), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logName(sub, 0), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, info, err := Recover(sub)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		wantBatches := len(bs) - 1
		wantTorn := cut != lastStart && cut != len(raw)
		if cut == len(raw) {
			wantBatches = len(bs)
		}
		if info.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, info.Torn, wantTorn)
		}
		if int(info.Replayed) != wantBatches {
			t.Fatalf("cut %d: replayed %d, want %d", cut, info.Replayed, wantBatches)
		}
		if !bytes.Equal(storeBytes(t, rec), want[wantBatches]) {
			t.Fatalf("cut %d: recovered store != state after %d batches", cut, wantBatches)
		}
		// Open must resume cleanly on the truncated prefix: appending a
		// fresh batch lands after the valid records.
		l2, st2, _, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		extra := []mod.Update{{OID: 1, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 500}}}}
		if err := l2.Append(extra); err != nil {
			t.Fatalf("cut %d: Append after Open: %v", cut, err)
		}
		if _, err := st2.ApplyUpdates(extra); err != nil {
			t.Fatalf("cut %d: apply after Open: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		rec2, info2, err := Recover(sub)
		if err != nil {
			t.Fatalf("cut %d: re-Recover: %v", cut, err)
		}
		if info2.Torn || int(info2.Replayed) != wantBatches+1 {
			t.Fatalf("cut %d: after resume torn=%v replayed=%d", cut, info2.Torn, info2.Replayed)
		}
		if !bytes.Equal(storeBytes(t, rec2), storeBytes(t, st2)) {
			t.Fatalf("cut %d: resumed store differs after re-recovery", cut)
		}
	}
}

// TestBitFlipDropsTail flips each byte of the final record in turn; the
// record must be rejected (torn recovery to the previous batch), never
// decoded wrong.
func TestBitFlipDropsTail(t *testing.T) {
	dir := t.TempDir()
	base := newStore(t, 6)
	l, err := Create(dir, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	bs := batches(rng, 6, 2, 2)
	for _, batch := range bs {
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := base.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logName(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	off := len(walMagic)
	lastStart := off
	for {
		_, n, err := decodeRecord(raw[off:], 3)
		if err != nil || n == 0 {
			break
		}
		lastStart = off
		off += n
	}
	snap, err := os.ReadFile(snapName(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	for pos := lastStart; pos < len(raw); pos += 7 {
		sub := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapName(sub, 0), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(logName(sub, 0), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, info, err := Recover(sub)
		if err != nil {
			t.Fatalf("flip @%d: Recover: %v", pos, err)
		}
		if int(info.Replayed) >= len(bs) && info.Torn {
			t.Fatalf("flip @%d: replayed all %d batches yet torn", pos, len(bs))
		}
		if int(info.Replayed) > len(bs) {
			t.Fatalf("flip @%d: replayed %d > %d batches", pos, info.Replayed, len(bs))
		}
		// A flip inside the last record must not replay it; the only
		// acceptable full replay would require the flip to be undetected,
		// which CRC-32C forbids for single-bit-of-a-byte damage here.
		if int(info.Replayed) == len(bs) {
			t.Fatalf("flip @%d: corrupt record replayed", pos)
		}
		_ = rec
	}
}

func TestCreateRefusesInitializedDir(t *testing.T) {
	dir := t.TempDir()
	st := newStore(t, 2)
	l, err := Create(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, st, Options{}); !errors.Is(err, ErrInitialized) {
		t.Fatalf("want ErrInitialized, got %v", err)
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	if _, _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

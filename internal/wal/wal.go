package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/mod"
)

// Directory-level errors.
var (
	// ErrNoSnapshot reports a recovery directory with no loadable
	// snapshot — nothing to recover from.
	ErrNoSnapshot = errors.New("wal: no loadable snapshot in directory")
	// ErrInitialized reports Create on a directory that already holds WAL
	// state; Open is the resume path, and refusing here keeps a mistyped
	// flag from silently clobbering a fleet's history.
	ErrInitialized = errors.New("wal: directory already initialized (resume with Open)")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log is closed")
)

// walMagic heads every log file so Recover can tell an empty-but-created
// log from a file torn during creation or belonging to something else.
// UTWAL3 records carry a per-update mode bitmask (tags, retire); UTWAL2
// (pre-retire, 0/1 tag mode) and UTWAL1 (pre-tags) logs replay with
// their legacy record layouts and Open rotates them away before
// appending, so no file ever mixes layouts.
var (
	walMagic   = [8]byte{'U', 'T', 'W', 'A', 'L', '3', 0, 0}
	walMagicV2 = [8]byte{'U', 'T', 'W', 'A', 'L', '2', 0, 0}
	walMagicV1 = [8]byte{'U', 'T', 'W', 'A', 'L', '1', 0, 0}
)

// Options tunes a log.
type Options struct {
	// Sync fsyncs the log file after every Append. Off, a crash can lose
	// the OS-buffered tail (still a clean torn-tail recovery — just not
	// every acknowledged batch); on, an acknowledged Append survives power
	// loss at ~one fdatasync of latency per batch.
	Sync bool
	// SnapshotEvery bounds recovery work: MaybeSnapshot (the modserver
	// post-apply hook) rewrites the snapshot and rotates the log once this
	// many batches accumulate. 0 disables automatic snapshots.
	SnapshotEvery int
}

// Log is an open write-ahead log rooted at a directory. The directory
// holds one or two generations of the pair
//
//	snap-<seq>.mod   store snapshot after <seq> batches (mod.SaveBinary)
//	wal-<seq>.log    magic header + records for batches <seq>+1, <seq>+2, …
//
// where <seq> is the zero-padded hex count of batches folded into the
// snapshot. Two generations exist only transiently, between a snapshot
// rename and the GC of its predecessor. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	snapSeq  uint64 // batches covered by the snapshot backing f
	appended uint64 // batches appended to f
	buf      []byte // reusable record encode buffer
	closed   bool
	stats    Stats
}

// Stats are the log's cumulative operation counters since Open/Create
// (metrics exposition; they do not survive a restart).
type Stats struct {
	// Appends counts successful Append calls; AppendedBytes their total
	// record bytes on disk.
	Appends       uint64
	AppendedBytes uint64
	// Snapshots counts snapshot rotations.
	Snapshots uint64
}

// Stats returns a snapshot of the cumulative counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// RecoverInfo describes what a recovery found.
type RecoverInfo struct {
	// SnapshotSeq is the batch count folded into the snapshot recovery
	// started from.
	SnapshotSeq uint64
	// Replayed is the number of log batches applied on top of it.
	Replayed uint64
	// Torn reports that trailing bytes after the last valid record were
	// discarded (a crash mid-Append, or tail corruption).
	Torn bool
	// walBytes is the byte length of the valid log prefix (header
	// included); Open truncates the file here before resuming appends.
	walBytes int64
	// legacy reports a UTWAL1/UTWAL2 log: readable, but Open must rotate
	// to a fresh snapshot + v3 log instead of appending v3 records under
	// an old header.
	legacy bool
}

// Seq returns the total batch count the recovered store reflects.
func (ri RecoverInfo) Seq() uint64 { return ri.SnapshotSeq + ri.Replayed }

// Create initializes dir (made if missing, but it must not already hold
// WAL state) with a snapshot of store and an empty log, and returns the
// open log. The store handed in is typically freshly built from -store or
// a generator; its snapshot is the recovery base for batch 1.
func Create(dir string, store *mod.Store, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if snaps, logs, err := listState(dir); err != nil {
		return nil, err
	} else if len(snaps) > 0 || len(logs) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrInitialized, dir)
	}
	if err := writeSnapshot(dir, 0, store); err != nil {
		return nil, err
	}
	f, err := createLogFile(dir, 0)
	if err != nil {
		return nil, err
	}
	return &Log{dir: dir, opts: opts, f: f}, nil
}

// Open recovers dir and returns the log positioned to append the next
// batch, alongside the recovered store. A torn tail is truncated away so
// subsequent appends extend a valid prefix.
func Open(dir string, opts Options) (*Log, *mod.Store, RecoverInfo, error) {
	st, info, err := Recover(dir)
	if err != nil {
		return nil, nil, info, err
	}
	name := logName(dir, info.SnapshotSeq)
	f, err := os.OpenFile(name, os.O_RDWR, 0o644)
	switch {
	case os.IsNotExist(err):
		// Crash between the snapshot rename and the log creation.
		if f, err = createLogFile(dir, info.SnapshotSeq); err != nil {
			return nil, nil, info, err
		}
	case err != nil:
		return nil, nil, info, fmt.Errorf("wal: %w", err)
	default:
		if err := f.Truncate(info.walBytes); err != nil {
			f.Close()
			return nil, nil, info, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(info.walBytes, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, info, fmt.Errorf("wal: %w", err)
		}
	}
	l := &Log{dir: dir, opts: opts, f: f, snapSeq: info.SnapshotSeq, appended: info.Replayed}
	if info.legacy {
		// An old-layout log cannot take v3 records: fold its replayed
		// batches into a fresh snapshot and rotate to a v3 log before any
		// append.
		if err := l.snapshotLocked(st); err != nil {
			_ = l.f.Close()
			return nil, nil, info, err
		}
	}
	return l, st, info, nil
}

// Recover rebuilds the store from dir without opening it for writing:
// load the newest loadable snapshot, then replay its log's valid record
// prefix through mod.Store.ApplyUpdates. Batches that fail validation
// mid-replay are skipped past exactly as the live ingest path skipped
// past them (the applied prefix of each batch is deterministic), so the
// result is byte-identical to the pre-crash store.
func Recover(dir string) (*mod.Store, RecoverInfo, error) {
	snaps, _, err := listState(dir)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	var firstErr error
	for i := len(snaps) - 1; i >= 0; i-- { // newest first
		seq := snaps[i]
		st, err := loadSnapshot(dir, seq)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		info := RecoverInfo{SnapshotSeq: seq}
		if err := replayLog(dir, seq, st, &info); err != nil {
			return nil, info, err
		}
		return st, info, nil
	}
	if firstErr != nil {
		return nil, RecoverInfo{}, fmt.Errorf("%w: %v", ErrNoSnapshot, firstErr)
	}
	return nil, RecoverInfo{}, fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
}

// replayLog applies the valid record prefix of seq's log file to st,
// filling info. A missing log file is a clean zero-batch replay.
func replayLog(dir string, seq uint64, st *mod.Store, info *RecoverInfo) error {
	b, err := os.ReadFile(logName(dir, seq))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	ver := 3
	switch {
	case len(b) >= len(walMagic) && [8]byte(b[:8]) == walMagic:
	case len(b) >= len(walMagicV2) && [8]byte(b[:8]) == walMagicV2:
		ver = 2
		info.legacy = true
	case len(b) >= len(walMagicV1) && [8]byte(b[:8]) == walMagicV1:
		ver = 1
		info.legacy = true
	default:
		// Torn during creation (or foreign): no records to trust.
		info.Torn = true
		info.walBytes = int64(len(walMagic))
		return nil
	}
	off := len(walMagic)
	for {
		batch, n, err := decodeRecord(b[off:], ver)
		if err != nil {
			info.Torn = true
			break
		}
		if n == 0 {
			break // clean end
		}
		// Apply errors are replay, not failure: the live server applied
		// this batch's valid prefix and kept serving; do the same.
		_, _ = st.ApplyUpdates(batch)
		off += n
		info.Replayed++
	}
	info.walBytes = int64(off)
	return nil
}

// Append durably records one update batch. Call it before applying the
// batch to the store — write-ahead is what makes the applied state
// recoverable. A batch that fails to reach disk is truncated back out so
// the log never holds a half-written middle.
func (l *Log) Append(batch []mod.Update) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var err error
	l.buf, err = AppendRecord(l.buf[:0], batch)
	if err != nil {
		return err
	}
	off, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		// Roll back the partial frame; if even that fails, recovery's
		// torn-tail handling still contains the damage.
		_ = l.f.Truncate(off)
		_, _ = l.f.Seek(off, io.SeekStart)
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.appended++
	l.stats.Appends++
	l.stats.AppendedBytes += uint64(len(l.buf))
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// MaybeSnapshot persists store as the new recovery base and rotates the
// log — temp-write + fsync + rename (never a torn snapshot visible under
// its final name), fresh log file, then GC of the superseded generation —
// when SnapshotEvery is set and at least that many batches have
// accumulated since the last snapshot. store must reflect exactly the
// batches appended so far.
func (l *Log) MaybeSnapshot(store *mod.Store) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.opts.SnapshotEvery <= 0 || l.appended < uint64(l.opts.SnapshotEvery) {
		return nil
	}
	return l.snapshotLocked(store)
}

// AfterApply is the modserver.Journal post-apply hook: an alias for
// MaybeSnapshot, called with the post-batch store under the ingest lock.
func (l *Log) AfterApply(store *mod.Store) error { return l.MaybeSnapshot(store) }

func (l *Log) snapshotLocked(store *mod.Store) error {
	seq := l.snapSeq + l.appended
	if err := writeSnapshot(l.dir, seq, store); err != nil {
		return err
	}
	f, err := createLogFile(l.dir, seq)
	if err != nil {
		return err
	}
	old, oldSeq := l.f, l.snapSeq
	l.f, l.snapSeq, l.appended = f, seq, 0
	l.stats.Snapshots++
	_ = old.Close()
	// GC the superseded generation. Failure is cosmetic: Recover prefers
	// the newest loadable snapshot regardless.
	_ = os.Remove(snapName(l.dir, oldSeq))
	_ = os.Remove(logName(l.dir, oldSeq))
	return nil
}

// Close syncs and closes the log file. The directory remains openable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- file helpers ---

func snapName(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.mod", seq))
}

func logName(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// listState returns the snapshot and log sequence numbers present in dir,
// each sorted ascending.
func listState(dir string) (snaps, logs []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		seq, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			return 0, false
		}
		return seq, true
	}
	for _, e := range ents {
		if seq, ok := parse(e.Name(), "snap-", ".mod"); ok {
			snaps = append(snaps, seq)
		} else if seq, ok := parse(e.Name(), "wal-", ".log"); ok {
			logs = append(logs, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	return snaps, logs, nil
}

func loadSnapshot(dir string, seq uint64) (*mod.Store, error) {
	f, err := os.Open(snapName(dir, seq))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := mod.LoadBinary(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %d: %w", seq, err)
	}
	return st, nil
}

// writeSnapshot atomically persists store as snap-<seq>.mod.
func writeSnapshot(dir string, seq uint64, store *mod.Store) error {
	final := snapName(dir, seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := store.SaveBinary(w); err == nil {
		err = w.Flush()
	} else {
		_ = w.Flush()
	}
	if err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: snapshot %d: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(dir)
	return nil
}

// createLogFile creates wal-<seq>.log with the magic header, synced.
func createLogFile(dir string, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(logName(dir, seq), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	syncDir(dir)
	return f, nil
}

// syncDir best-effort fsyncs a directory so renames and creations are
// durable. Some filesystems refuse directory fsync; recovery tolerates
// the resulting states anyway.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

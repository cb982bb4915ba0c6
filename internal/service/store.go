package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccd"
	"repro/internal/index"
	"repro/internal/trace"
)

// Snapshot, WAL and WAL-epoch file names inside a store directory.
const (
	SnapshotFile = "corpus.snap"
	WALFile      = "corpus.wal"
	EpochFile    = "corpus.epoch"
)

// Store makes a Corpus durable inside one directory:
//
//	<dir>/corpus.snap   whole-corpus binary snapshot (atomic: temp + rename)
//	<dir>/corpus.wal    append-only log of Adds since the last snapshot
//
// Every acknowledged Add is fsynced to the WAL before it becomes visible in
// memory, so a crash (kill -9, power loss) between snapshots loses nothing
// that was acknowledged. OpenStore restores the snapshot (if any), replays
// the WAL on top, truncates any torn tail left by a crash mid-append, and
// then journals all subsequent Adds. Snapshot persists the corpus and
// truncates the WAL in one critical section.
type Store struct {
	dir    string
	corpus *Corpus
	wal    *wal
	opts   StoreOptions

	// remapFailures counts post-snapshot remap attempts that failed (the
	// heap generations keep serving; mapping is an optimization, not
	// correctness).
	remapFailures atomic.Int64

	// mu orders Adds against Snapshot: Adds hold it shared (WAL append plus
	// in-memory insert happen atomically w.r.t. snapshots), Snapshot holds
	// it exclusively so the saved corpus and the truncated WAL agree.
	mu sync.RWMutex

	// walEpoch identifies the current WAL generation. Stream positions are
	// only comparable within one generation, so it is bumped — and persisted
	// to EpochFile — before every WAL truncation; replicas echo it on
	// /v1/wal/stream and a mismatch answers ErrWALTruncated regardless of
	// position. Written under the exclusive lock, read atomically.
	walEpoch atomic.Int64

	// walCursor caches the byte offset of the last WAL stream position
	// served, so a replica tailing the log seeks straight to its position
	// instead of re-replaying the whole file every poll.
	walCursor atomic.Pointer[walCursor]

	restored       int           // entries restored from the snapshot at boot
	replayed       int           // WAL records applied at boot
	replayDupes    int           // WAL records skipped as already in the snapshot
	replayOutdated int           // WAL records superseded by a later record for the same id
	tornTail       bool          // whether boot found (and cut) a torn WAL tail
	restoreDur     time.Duration // boot-time snapshot restore + WAL replay wall time
	pendingAdds    atomic.Int64  // adds journaled since the last snapshot
	snapshots      atomic.Int64  // successful snapshots taken
	lastSnapshot   atomic.Int64  // unix nanos of the last successful snapshot

	snapWriteHist trace.Hist // µs per successful Snapshot call

	// Backpressure from durability into ingest acks: config (swapped
	// atomically so tests and admins can retune live) plus the delay
	// accounting.
	bp        atomic.Pointer[BackpressureConfig]
	bpDelays  atomic.Int64 // acks that were slowed
	bpDelayUs atomic.Int64 // total injected delay
}

// BackpressureConfig slows ingest acknowledgements when WAL fsyncs degrade:
// once the rolling-window fsync p99 crosses FsyncP99, every durable Add
// sleeps for the excess (capped at MaxDelay) before acknowledging. Write
// bursts then degrade smoothly — clients are paced at the disk's actual
// speed — instead of piling work onto a drowning log until the admission
// queue cliffs into 429s.
type BackpressureConfig struct {
	// FsyncP99 is the rolling-window fsync p99 above which acks slow.
	// 0 disables backpressure.
	FsyncP99 time.Duration
	// MaxDelay caps the per-ack delay (0 selects DefaultBackpressureMaxDelay).
	MaxDelay time.Duration
}

// DefaultBackpressureMaxDelay caps one ingest ack's injected delay when
// BackpressureConfig.MaxDelay is unset.
const DefaultBackpressureMaxDelay = 100 * time.Millisecond

// SetBackpressure installs (or, with a zero config, removes) the ingest
// backpressure policy. Safe to call while the store is serving traffic.
func (s *Store) SetBackpressure(cfg BackpressureConfig) {
	if cfg.FsyncP99 <= 0 {
		s.bp.Store(nil)
		return
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultBackpressureMaxDelay
	}
	s.bp.Store(&cfg)
}

// backpressureDelay slows one acknowledged add when the rolling fsync p99
// is over the configured threshold. The record is already durable and
// visible — the delay only paces the client — so a cancelled ctx simply
// skips the wait.
func (s *Store) backpressureDelay(ctx context.Context) {
	cfg := s.bp.Load()
	if cfg == nil {
		return
	}
	p99 := s.wal.recentFsyncP99()
	if p99 <= cfg.FsyncP99 {
		return
	}
	delay := p99 - cfg.FsyncP99
	if delay > cfg.MaxDelay {
		delay = cfg.MaxDelay
	}
	_, sp := trace.Start(ctx, "ingest.backpressure")
	sp.AnnotateInt("delay_us", delay.Microseconds())
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	sp.End()
	s.bpDelays.Add(1)
	s.bpDelayUs.Add(delay.Microseconds())
}

// StoreOptions tunes how a store boots and maintains its corpus.
type StoreOptions struct {
	// NoMapSegments disables the zero-copy snapshot path: boot decodes the
	// snapshot to the heap (ReadSnapshot) and no post-snapshot remap runs.
	// The default (false) memory-maps the snapshot file and opens segments
	// in place, making restore a validation pass.
	NoMapSegments bool
}

// OpenStore attaches durable storage in dir to c (which must be empty: the
// store's contents become the corpus's initial state). The directory is
// created if needed. Snapshot segments are memory-mapped by default; use
// OpenStoreWith to opt out.
func OpenStore(dir string, c *Corpus) (*Store, error) {
	return OpenStoreWith(dir, c, StoreOptions{})
}

// OpenStoreWith is OpenStore with explicit options.
func OpenStoreWith(dir string, c *Corpus, opts StoreOptions) (*Store, error) {
	if c.store != nil {
		return nil, fmt.Errorf("service: corpus already has a store attached")
	}
	if c.Backend() != index.BackendCCD {
		return nil, fmt.Errorf("service: store requires a ccd-backed corpus (got %q): the WAL journals (id, fingerprint) pairs", c.Backend())
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("service: OpenStore needs an empty corpus (%d entries)", c.Len())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: create store dir: %w", err)
	}
	s := &Store{dir: dir, corpus: c, opts: opts}
	bootStart := time.Now()

	snapPath := filepath.Join(dir, SnapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		var restoreErr error
		if opts.NoMapSegments {
			f, err := os.Open(snapPath)
			if err != nil {
				return nil, err
			}
			restoreErr = c.ReadSnapshot(f)
			f.Close()
		} else {
			restoreErr = c.OpenSnapshotFile(snapPath)
		}
		if restoreErr != nil {
			return nil, fmt.Errorf("service: restore %s: %w", snapPath, restoreErr)
		}
		s.restored = c.Len()
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// Replay is idempotent against the snapshot: a crash between the
	// snapshot rename and the WAL truncate leaves a WAL whose records are
	// all already in the snapshot, so records matching a not-yet-consumed
	// snapshot entry (same id and fingerprint) are skipped instead of
	// indexed twice. Only the LAST record per id replays: the corpus's
	// duplicate-id supersede means applying an earlier record after the
	// snapshot restore would roll the id back to a stale fingerprint (the
	// snapshot already holds the final one). The multiset of restored
	// entries is built only when there are records to check against it:
	// it keys every restored entry, a whole-corpus pass on each boot.
	walPath := filepath.Join(dir, WALFile)
	var recs []ccd.Entry
	_, goodOffset, torn, err := replayWAL(walPath, func(id string, fp ccd.Fingerprint) {
		recs = append(recs, ccd.Entry{ID: id, FP: fp})
	})
	var covered map[string]int
	if s.restored > 0 && len(recs) > 0 {
		covered = c.entryMultiset()
	}
	lastFor := make(map[string]int, len(recs))
	for i, r := range recs {
		lastFor[r.ID] = i
	}
	var replayBatch []ccd.Entry
	for i, r := range recs {
		if lastFor[r.ID] != i {
			s.replayOutdated++
			continue
		}
		key := r.ID + "\x00" + string(r.FP)
		if covered[key] > 0 {
			covered[key]--
			s.replayDupes++
			continue
		}
		replayBatch = append(replayBatch, r)
		s.replayed++
	}
	// One publish for the whole log instead of one per record: boot-time
	// replay builds a single delta segment.
	c.addLocalBatch(replayBatch)
	if err != nil {
		return nil, fmt.Errorf("service: replay %s: %w", walPath, err)
	}
	s.tornTail = torn
	if torn {
		if err := os.Truncate(walPath, goodOffset); err != nil {
			return nil, fmt.Errorf("service: cut torn WAL tail: %w", err)
		}
	}
	s.pendingAdds.Store(int64(s.replayed))

	if s.wal, err = openWAL(walPath); err != nil {
		return nil, fmt.Errorf("service: open WAL: %w", err)
	}
	epoch, err := loadOrInitEpoch(dir)
	if err != nil {
		return nil, fmt.Errorf("service: wal epoch: %w", err)
	}
	s.walEpoch.Store(epoch)
	s.restoreDur = time.Since(bootStart)
	c.store = s
	return s, nil
}

// Ready reports whether the store can take traffic: boot replay is complete
// (an open *Store implies it) and no failed-group-commit rollback is waiting
// for its truncate. A load balancer should not route to a not-ready node.
func (s *Store) Ready() bool {
	return s.wal != nil && !s.wal.rollbackPending()
}

// add journals the entry, then makes it visible. Called by Corpus.Add. The
// backpressure delay runs after the shared lock is released: slowing an ack
// must never hold up a Snapshot waiting for the exclusive lock.
func (s *Store) add(ctx context.Context, id string, fp ccd.Fingerprint) error {
	if err := func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if err := s.wal.appendRecord(ctx, id, fp); err != nil {
			return fmt.Errorf("%w: wal append: %v", ErrPersist, err)
		}
		s.corpus.addLocal(id, fp)
		s.pendingAdds.Add(1)
		return nil
	}(); err != nil {
		return err
	}
	s.backpressureDelay(ctx)
	return nil
}

// SnapshotInfo reports one Snapshot call.
type SnapshotInfo struct {
	Path    string        `json:"path"`
	Bytes   int64         `json:"bytes"`
	Entries int           `json:"entries"`
	Elapsed time.Duration `json:"-"`
}

// Snapshot persists the corpus atomically (write to a temp file in the same
// directory, fsync, rename) and truncates the WAL. Ingest pauses for the
// duration; matching is unaffected.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	tmp, err := os.CreateTemp(s.dir, SnapshotFile+".tmp-*")
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_ = tmp.Chmod(0o644)        // CreateTemp defaults to 0600
	if err := s.corpus.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return SnapshotInfo{}, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return SnapshotInfo{}, err
	}
	st, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return SnapshotInfo{}, err
	}
	if err := tmp.Close(); err != nil {
		return SnapshotInfo{}, err
	}
	final := filepath.Join(s.dir, SnapshotFile)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return SnapshotInfo{}, err
	}
	syncDir(s.dir)
	// The epoch bump lands BEFORE the WAL truncate: a replica must be able to
	// observe the generation change before it can ever observe the truncated
	// log, or its stale stream position could silently land inside the new
	// log's records. A crash between the two steps leaves a new epoch over an
	// intact log — replicas re-bootstrap needlessly, which is safe.
	epoch := s.walEpoch.Load() + 1
	if err := writeEpoch(s.dir, epoch); err != nil {
		return SnapshotInfo{}, fmt.Errorf("snapshot saved but WAL epoch persist failed (WAL left intact; replay will be redundant, not lossy): %w", err)
	}
	s.walEpoch.Store(epoch)
	if err := s.wal.reset(); err != nil {
		return SnapshotInfo{}, fmt.Errorf("snapshot saved but WAL truncate failed (replay will be redundant, not lossy): %w", err)
	}
	// Best-effort: swap the published generations onto zero-copy segments
	// over the file just written — compaction back onto the mapping. Ingest
	// is still quiescent (we hold s.mu), so the corpus equals the snapshot.
	// On failure the heap generations keep serving unchanged.
	if !s.opts.NoMapSegments {
		if err := s.corpus.remapSnapshot(final); err != nil {
			s.remapFailures.Add(1)
		}
	}
	s.pendingAdds.Store(0)
	s.snapshots.Add(1)
	s.lastSnapshot.Store(time.Now().UnixNano())
	s.snapWriteHist.ObserveDuration(time.Since(start))
	return SnapshotInfo{
		Path:    final,
		Bytes:   st.Size(),
		Entries: s.corpus.Len(),
		Elapsed: time.Since(start),
	}, nil
}

// ErrWALTruncated reports a WAL stream position the current log does not
// cover: either the caller's epoch names a previous WAL generation (a
// snapshot truncated the log since its last read), or an epoch-less position
// lies past the end of the log. Positions from an old generation are
// meaningless against the new one even when they happen to fit inside it,
// so a replica must re-bootstrap from a fresh snapshot before resuming.
var ErrWALTruncated = errors.New("wal stream position predates the current log (snapshot truncated it; re-bootstrap)")

// WALEpoch returns the current WAL generation id. It changes whenever the
// log is truncated; stream positions are only valid within one generation.
func (s *Store) WALEpoch() int64 { return s.walEpoch.Load() }

// MaxWALPageRecords caps one WALPage (and thus one /v1/wal/stream response).
// Pages are collected in memory under the store's shared lock and written to
// the network after it is released, so the cap bounds both the page's heap
// footprint and the lock hold time.
const MaxWALPageRecords = 4096

// WALEntry is one record read back from the WAL for streaming.
type WALEntry struct {
	Seq int
	ID  string
	FP  ccd.Fingerprint
}

// WALPage is one page of the WAL stream.
type WALPage struct {
	Entries []WALEntry // up to max records from position `from`, in order
	Next    int        // position to resume from
	Epoch   int64      // the WAL generation the positions belong to
	More    bool       // page was cut by max; more records are ready now
}

// walCursor remembers where in the file a stream position lives, so the next
// page seeks instead of re-replaying the log from byte 0. Only trusted when
// the epoch still matches: a truncation invalidates every cached offset.
type walCursor struct {
	epoch int64
	pos   int
	off   int64
}

// WALPage reads up to max records (capped at MaxWALPageRecords) from record
// position `from` (0-based, counted from the last snapshot — the WAL has no
// persistent sequence numbers, positions ARE the sequence). epoch is the WAL
// generation the caller's position belongs to (0 = unknown, first contact);
// a mismatch returns ErrWALTruncated regardless of position, as does an
// epoch-less `from` beyond the log. Only fsynced records are served: a
// record a failed group commit could still roll back never reaches a
// replica. The page is collected under the store's shared lock — a snapshot
// cannot truncate the log mid-page — and the caller streams it out after the
// lock is released.
func (s *Store) WALPage(from int, epoch int64, max int) (WALPage, error) {
	if from < 0 {
		from = 0
	}
	if max <= 0 || max > MaxWALPageRecords {
		max = MaxWALPageRecords
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := s.walEpoch.Load()
	page := WALPage{Next: from, Epoch: cur}
	if epoch != 0 && epoch != cur {
		return page, ErrWALTruncated
	}
	durable := s.wal.durableSize()
	seq, off := 0, int64(0)
	resumed := false
	if c := s.walCursor.Load(); c != nil && c.epoch == cur && c.pos == from && from > 0 {
		// Tail fast path: the previous page ended exactly here, so start the
		// scan at its byte offset instead of decoding the whole log again.
		seq, off, resumed = c.pos, c.off, true
	}
	if _, _, err := walScan(filepath.Join(s.dir, WALFile), off, func(id string, fp ccd.Fingerprint, end int64) bool {
		if end > durable {
			return false
		}
		if seq >= from {
			if len(page.Entries) >= max {
				page.More = true
				return false
			}
			page.Entries = append(page.Entries, WALEntry{Seq: seq, ID: id, FP: fp})
			page.Next = seq + 1
		}
		seq++
		off = end
		return true
	}); err != nil {
		return page, err
	}
	if !resumed && from > seq {
		return page, ErrWALTruncated
	}
	s.walCursor.Store(&walCursor{epoch: cur, pos: page.Next, off: off})
	return page, nil
}

// loadOrInitEpoch reads the persisted WAL epoch, minting (and persisting) a
// fresh one when the file is missing or unreadable. A minted epoch is the
// boot wall clock in nanoseconds, so a wiped-and-recreated store directory
// can never collide with the generation a replica remembers.
func loadOrInitEpoch(dir string) (int64, error) {
	path := filepath.Join(dir, EpochFile)
	if b, err := os.ReadFile(path); err == nil {
		if v, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); perr == nil && v > 0 {
			return v, nil
		}
		// Corrupt epoch file: mint a new generation. Replicas re-bootstrap,
		// which is safe; resuming positionally against an unknown one is not.
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	v := time.Now().UnixNano()
	if err := writeEpoch(dir, v); err != nil {
		return 0, err
	}
	return v, nil
}

// writeEpoch persists the WAL epoch atomically (temp + rename + dir sync).
func writeEpoch(dir string, v int64) error {
	tmp, err := os.CreateTemp(dir, EpochFile+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_ = tmp.Chmod(0o644)
	if _, err := fmt.Fprintf(tmp, "%d\n", v); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, EpochFile)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: some filesystems reject directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// StartAutoSnapshot snapshots every interval while there are journaled adds
// not yet covered by a snapshot. The returned stop function halts the loop
// and waits for an in-flight snapshot to finish; it is idempotent, so it can
// be both deferred and called explicitly before Close.
func (s *Store) StartAutoSnapshot(interval time.Duration, onErr func(error)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if s.pendingAdds.Load() == 0 {
					continue
				}
				if _, err := s.Snapshot(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// Close releases the WAL file handle. It does not snapshot; callers wanting
// a clean shutdown snapshot first.
func (s *Store) Close() error {
	return s.wal.close()
}

// StoreInfo is a point-in-time view of the store for /v1/corpus and logs.
type StoreInfo struct {
	Dir             string `json:"dir"`
	RestoredEntries int    `json:"restored_entries"`
	ReplayedRecords int    `json:"replayed_records"`
	// ReplaySkippedDuplicates counts WAL records already covered by the
	// snapshot (a crash hit the window between snapshot rename and WAL
	// truncate); they are collapsed at recovery, not indexed twice.
	ReplaySkippedDuplicates int `json:"replay_skipped_duplicates,omitempty"`
	// ReplaySuperseded counts WAL records outdated by a later record for the
	// same id; only the final version of each id replays.
	ReplaySuperseded int    `json:"replay_superseded,omitempty"`
	TornTailCut      bool   `json:"torn_tail_cut,omitempty"`
	PendingAdds      int64  `json:"pending_adds"`
	Snapshots        int64  `json:"snapshots"`
	LastSnapshot     string `json:"last_snapshot,omitempty"`
	WALBytes         int64  `json:"wal_bytes"`
	// WALEpoch identifies the current WAL generation; it changes whenever the
	// log is truncated, and /v1/wal/stream positions are only valid within
	// it. Comparing it across a primary and its replica tells whether the
	// replica's stream position is still meaningful.
	WALEpoch int64 `json:"wal_epoch,omitempty"`
	// MappedSegments counts published segments reading zero-copy out of the
	// snapshot mapping; SegmentRemaps how many post-snapshot remaps swung
	// the generations onto a fresh mapping; RemapFailures the best-effort
	// attempts that failed (heap segments kept serving).
	MappedSegments int   `json:"mapped_segments,omitempty"`
	SegmentRemaps  int64 `json:"segment_remaps,omitempty"`
	RemapFailures  int64 `json:"remap_failures,omitempty"`
}

// Info reports the store's boot and runtime statistics.
func (s *Store) Info() StoreInfo {
	info := StoreInfo{
		Dir:                     s.dir,
		RestoredEntries:         s.restored,
		ReplayedRecords:         s.replayed,
		ReplaySkippedDuplicates: s.replayDupes,
		ReplaySuperseded:        s.replayOutdated,
		TornTailCut:             s.tornTail,
		PendingAdds:             s.pendingAdds.Load(),
		Snapshots:               s.snapshots.Load(),
		WALEpoch:                s.walEpoch.Load(),
		MappedSegments:          s.corpus.MappedSegments(),
		SegmentRemaps:           s.corpus.Remaps(),
		RemapFailures:           s.remapFailures.Load(),
	}
	if ns := s.lastSnapshot.Load(); ns != 0 {
		info.LastSnapshot = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	if n, err := s.wal.size(); err == nil {
		info.WALBytes = n
	}
	return info
}

// DurabilityStats is the /metrics view of the store's WAL and snapshot
// instrumentation.
type DurabilityStats struct {
	// FsyncLatency is the per-fsync latency histogram of the WAL group
	// commit; GroupCommitBatch the records each fsync made durable (the
	// coalescing factor under concurrent ingest).
	FsyncLatency     LatencyStats `json:"fsync_latency"`
	GroupCommitBatch SizeStats    `json:"group_commit_batch"`

	// Rollbacks counts failed-group-commit rollbacks; CondemnedRecords the
	// appended records those rollbacks cut from the log.
	Rollbacks        int64 `json:"rollbacks"`
	CondemnedRecords int64 `json:"condemned_records"`

	// SnapshotWrite times successful Store.Snapshot calls; RestoreUs is the
	// boot-time snapshot restore + WAL replay wall time.
	SnapshotWrite LatencyStats `json:"snapshot_write"`
	RestoreUs     int64        `json:"restore_us"`

	// BackpressureDelays counts ingest acks slowed because the rolling
	// fsync p99 crossed the configured threshold; BackpressureDelayUs is
	// the total delay injected. BackpressureEngaged reports whether a
	// freshly arriving ack would be slowed right now, and RecentFsyncP99Us
	// is the rolling-window (last fsyncs, not lifetime) p99 the policy
	// reads — unlike FsyncLatency it recovers when the disk does.
	BackpressureDelays  int64 `json:"backpressure_delays"`
	BackpressureDelayUs int64 `json:"backpressure_delay_us"`
	BackpressureEngaged bool  `json:"backpressure_engaged"`
	RecentFsyncP99Us    int64 `json:"recent_fsync_p99_us"`

	Ready bool `json:"ready"`
}

// Durability reports the store's WAL/snapshot instrumentation.
func (s *Store) Durability() DurabilityStats {
	d := DurabilityStats{
		FsyncLatency:        latencyStats(&s.wal.fsyncHist),
		GroupCommitBatch:    sizeStats(&s.wal.batchHist),
		Rollbacks:           s.wal.rollbacks.Load(),
		CondemnedRecords:    s.wal.condemned.Load(),
		SnapshotWrite:       latencyStats(&s.snapWriteHist),
		RestoreUs:           s.restoreDur.Microseconds(),
		BackpressureDelays:  s.bpDelays.Load(),
		BackpressureDelayUs: s.bpDelayUs.Load(),
		RecentFsyncP99Us:    s.wal.recentFsyncP99().Microseconds(),
		Ready:               s.Ready(),
	}
	if cfg := s.bp.Load(); cfg != nil {
		d.BackpressureEngaged = s.wal.recentFsyncP99() > cfg.FsyncP99
	}
	return d
}

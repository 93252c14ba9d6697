package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// SyncPolicy selects when the Writer fsyncs appended batch records.
type SyncPolicy uint8

const (
	// SyncEachBatch fsyncs after every LogBatch before it returns: a batch is
	// durable before the engine commits it. The strictest policy and the
	// honest group-commit durability point (the batch IS the commit group).
	SyncEachBatch SyncPolicy = iota
	// SyncGroup fsyncs every Options.GroupEvery batches (and at rotation and
	// Close): bounded loss window of GroupEvery-1 batches, amortized fsync
	// cost.
	SyncGroup
	// SyncOff never fsyncs; the OS page cache decides. A crash loses an
	// unbounded suffix — recovery still yields a consistent prefix.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEachBatch:
		return "each"
	case SyncGroup:
		return "group"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// Options tunes the segmented Writer.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one reaches
	// this size (default 4 MiB). A single record larger than the limit still
	// lands whole — segments bound typical size, never split records.
	SegmentBytes int
	// SegmentBatches additionally rotates after this many batches per segment
	// (the epoch trigger; default 1024).
	SegmentBatches int
	// Sync selects the fsync policy (default SyncEachBatch).
	Sync SyncPolicy
	// GroupEvery is the SyncGroup fsync interval in batches (default 8).
	GroupEvery int
	// FS substitutes the filesystem (default OSFS); the fault-injection
	// tests pass a FaultFS.
	FS FS
	// Metrics, when non-nil, receives the log's observability instruments:
	// fsync latency, segment count, bytes appended, snapshot epoch and age,
	// labeled log=<basename of dir>.
	Metrics *obs.Registry
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBatches <= 0 {
		o.SegmentBatches = 1024
	}
	if o.GroupEvery <= 0 {
		o.GroupEvery = 8
	}
	if o.FS == nil {
		o.FS = OSFS
	}
}

const (
	manifestName = "MANIFEST"
	manifestTmp  = "MANIFEST.tmp"
	snapMagic    = 0x53534351 // "QCSS": wal snapshot file header
)

func segFileName(start uint64) string  { return fmt.Sprintf("wal-%016x.seg", start) }
func snapFileName(epoch uint64) string { return fmt.Sprintf("snap-%016x.snap", epoch) }

// segInfo is one live segment: its file name and the epoch of its first
// record.
type segInfo struct {
	name  string
	start uint64
}

// manifest is the directory's source of truth: which snapshot and which
// segment files are live, in epoch order. It is rewritten atomically
// (tmp + fsync + rename) on every rotation and snapshot; files present in
// the directory but absent from the manifest are dead (a crash between a
// manifest update and the removals it implies) and are cleaned up on Open.
type manifest struct {
	snapName  string
	snapEpoch uint64
	term      uint64
	segments  []segInfo
}

func readManifest(fsys FS, dir string) (manifest, bool, error) {
	var m manifest
	f, err := fsys.Open(filepath.Join(dir, manifestName))
	if notExist(err) {
		return m, false, nil
	}
	if err != nil {
		return m, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != "qotp-wal v1" {
		return m, false, fmt.Errorf("wal: %s: bad manifest header", dir)
	}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "snapshot" && len(fields) == 3:
			e, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return m, false, fmt.Errorf("wal: manifest: bad snapshot epoch %q", fields[2])
			}
			m.snapName, m.snapEpoch = fields[1], e
		case fields[0] == "term" && len(fields) == 2:
			t, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return m, false, fmt.Errorf("wal: manifest: bad term %q", fields[1])
			}
			m.term = t
		case fields[0] == "segment" && len(fields) == 3:
			s, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return m, false, fmt.Errorf("wal: manifest: bad segment start %q", fields[2])
			}
			m.segments = append(m.segments, segInfo{name: fields[1], start: s})
		default:
			return m, false, fmt.Errorf("wal: manifest: bad line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return m, false, err
	}
	for i := 1; i < len(m.segments); i++ {
		if m.segments[i].start < m.segments[i-1].start {
			return m, false, fmt.Errorf("wal: manifest: segments out of order")
		}
	}
	return m, true, nil
}

func writeManifest(fsys FS, dir string, m manifest) error {
	var b strings.Builder
	b.WriteString("qotp-wal v1\n")
	if m.snapName != "" {
		fmt.Fprintf(&b, "snapshot %s %d\n", m.snapName, m.snapEpoch)
	}
	if m.term != 0 {
		fmt.Fprintf(&b, "term %d\n", m.term)
	}
	for _, s := range m.segments {
		fmt.Fprintf(&b, "segment %s %d\n", s.name, s.start)
	}
	tmp := filepath.Join(dir, manifestTmp)
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(f, b.String()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, manifestName))
}

// Writer is the production write path: a directory of numbered segment files
// plus a manifest, rotated on size/epoch triggers, fsynced per policy, and
// truncated behind storage snapshots. It implements the engine BatchLogger
// hook (core.Config.Logger, serve.Config.WAL, dist.QueCCD.SetLogger), so one
// Writer can sit under any layer of the stack; it is single-writer like the
// engines' commit paths and is not safe for concurrent use.
//
// Epochs: the Writer keeps its own contiguous epoch sequence (the batch
// index since the log's creation). The first LogBatch after Open pins the
// caller's epoch numbering to it; from then on every call must advance by
// exactly one — a recovered engine restarting its local count at zero keeps
// logging seamlessly at the log's true position.
type Writer struct {
	dir  string
	fs   FS
	opts Options
	man  manifest

	tail        File
	tailStart   uint64
	tailSize    int64
	tailBatches int

	next      uint64 // next wal epoch to append
	offset    uint64 // caller epoch + offset == wal epoch
	offsetSet bool
	sinceSync int

	buf    []byte // frame scratch, reused across batches
	err    error  // sticky IO failure: the log is poisoned, like a dead engine
	closed bool

	// Scrape-time mirrors: the Writer is single-threaded by contract, so
	// observability gauges read these atomics — never the plain fields above,
	// which a scrape goroutine must not touch.
	mSegments  atomic.Uint64
	mBytes     atomic.Uint64 // frame bytes appended
	mNext      atomic.Uint64
	mSnapEpoch atomic.Uint64
	mSnapAt    atomic.Int64 // unix nanos of the last local snapshot (0 = none)
	wFsync     *obs.Window  // fsync latency (nil-safe)
}

// registerMetrics wires the log's instruments into opts.Metrics.
func (w *Writer) registerMetrics() {
	r := w.opts.Metrics
	ll := obs.L("log", filepath.Base(w.dir))
	r.GaugeUint("qotp_wal_segments", "live segment files", &w.mSegments, ll)
	r.GaugeUint("qotp_wal_appended_bytes_total", "frame bytes appended to the log", &w.mBytes, ll)
	r.GaugeUint("qotp_wal_next_epoch", "next wal epoch to append", &w.mNext, ll)
	r.GaugeUint("qotp_wal_snapshot_epoch", "epoch of the current snapshot (0 when none)", &w.mSnapEpoch, ll)
	r.Gauge("qotp_wal_snapshot_age_seconds", "seconds since the last local snapshot (-1 before one exists)", func() float64 {
		at := w.mSnapAt.Load()
		if at == 0 {
			return -1
		}
		return time.Since(time.Unix(0, at)).Seconds()
	}, ll)
	w.wFsync = r.WindowOpts("qotp_wal_fsync_seconds", "fsync latency", 10*time.Second, 20, ll)
}

// mirror refreshes the scrape-time atomics from the writer's own fields.
// Called at the end of every mutation that moves them.
func (w *Writer) mirror() {
	w.mSegments.Store(uint64(len(w.man.segments)))
	w.mNext.Store(w.next)
	w.mSnapEpoch.Store(w.man.snapEpoch)
}

// syncFile is File.Sync with the fsync-latency window fed.
func (w *Writer) syncFile(f File) error {
	if w.wFsync == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	w.wFsync.ObserveDuration(time.Since(start))
	return err
}

// Open creates or reopens the write-ahead log in dir. Reopening repairs a
// torn tail (the last segment is truncated to its intact prefix and any
// unreachable later segments are dropped), removes orphan files a crash left
// behind, and always starts a fresh tail segment — sealed segments are never
// appended to again. Run RecoverFrom BEFORE Open when state must be rebuilt:
// Open mutates the directory, RecoverFrom never does.
func Open(dir string, opts Options) (*Writer, error) {
	opts.normalize()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	man, found, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, fs: fsys, opts: opts, man: man}
	if opts.Metrics != nil {
		w.registerMetrics()
	}
	w.next = man.snapEpoch
	if found {
		if err := w.repair(); err != nil {
			return nil, err
		}
		w.cleanOrphans()
	}
	// Always start a fresh tail segment: never append after a byte range a
	// crash may have torn.
	if err := w.rotate(); err != nil {
		return nil, w.err
	}
	return w, nil
}

// repair walks the manifest's segments from the snapshot epoch, verifying
// record integrity and epoch contiguity; the first break truncates that
// segment to its intact prefix and drops everything after it from the
// manifest. After repair, the on-disk log and the replayable log coincide.
func (w *Writer) repair() error {
	expect := w.man.snapEpoch
	for i, seg := range w.man.segments {
		if seg.start > expect {
			// A gap before this segment (its predecessor lost an unsynced
			// tail): nothing at or after it is reachable.
			w.dropSegments(i)
			w.next = expect
			return nil
		}
		recs, validBytes, intact, err := scanSegment(w.fs, filepath.Join(w.dir, seg.name), expect)
		if err != nil {
			return err
		}
		expect += uint64(recs)
		if !intact {
			if err := w.fs.Truncate(filepath.Join(w.dir, seg.name), validBytes); err != nil {
				return fmt.Errorf("wal: repair %s: %w", seg.name, err)
			}
			w.dropSegments(i + 1)
			w.next = expect
			return nil
		}
	}
	w.next = expect
	return nil
}

// dropSegments removes manifest segments [from:] and their files.
func (w *Writer) dropSegments(from int) {
	for _, seg := range w.man.segments[from:] {
		_ = w.fs.Remove(filepath.Join(w.dir, seg.name)) // best-effort; orphans are cleaned next Open
	}
	w.man.segments = w.man.segments[:from]
}

// cleanOrphans removes wal-owned files the manifest does not reference —
// leftovers of a crash between a manifest update and its removals.
func (w *Writer) cleanOrphans() {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return
	}
	live := map[string]bool{manifestName: true}
	if w.man.snapName != "" {
		live[w.man.snapName] = true
	}
	for _, s := range w.man.segments {
		live[s.name] = true
	}
	for _, name := range names {
		if live[name] {
			continue
		}
		owned := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg")) ||
			(strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"))
		if owned {
			_ = w.fs.Remove(filepath.Join(w.dir, name))
		}
	}
}

// scanSegment reads a segment sequentially, verifying each record's framing,
// CRC and epoch contiguity from start. It returns the number of intact
// records, the byte length of the intact prefix, and whether the segment ends
// cleanly (intact=false means a torn/damaged tail begins at validBytes).
func scanSegment(fsys FS, path string, start uint64) (recs int, validBytes int64, intact bool, err error) {
	f, err := fsys.Open(path)
	if notExist(err) {
		// Listed but missing: treat like a fully lost tail.
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [recordHeader]byte
	buf := make([]byte, 0, 1<<16)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, validBytes, err == io.EOF, nil
		}
		if binary.LittleEndian.Uint32(hdr[:]) != magic {
			return recs, validBytes, false, nil
		}
		epoch := binary.LittleEndian.Uint64(hdr[4:])
		n := binary.LittleEndian.Uint32(hdr[12:])
		sum := binary.LittleEndian.Uint32(hdr[16:])
		if n > MaxRecordBytes {
			return recs, validBytes, false, nil
		}
		payload, err := readPayload(r, int(n), buf[:0])
		if err != nil {
			return recs, validBytes, false, nil
		}
		buf = payload
		if crc32.ChecksumIEEE(payload) != sum || epoch != start+uint64(recs) {
			return recs, validBytes, false, nil
		}
		recs++
		validBytes += int64(recordHeader) + int64(n)
	}
}

// rotate seals the current tail segment (fsync unless SyncOff, then close)
// and starts a new one at the current epoch, recording it in the manifest
// before any record lands in it — a listed segment always exists, so a crash
// between the two steps is recoverable.
func (w *Writer) rotate() error {
	if w.err != nil {
		return w.err
	}
	if w.tail != nil {
		if w.opts.Sync != SyncOff {
			if err := w.syncFile(w.tail); err != nil {
				return w.poison(err)
			}
		}
		if err := w.tail.Close(); err != nil {
			return w.poison(err)
		}
		w.tail = nil
	}
	name := segFileName(w.next)
	f, err := w.fs.Create(filepath.Join(w.dir, name))
	if err != nil {
		return w.poison(err)
	}
	if n := len(w.man.segments); n > 0 && w.man.segments[n-1].name == name {
		// Reopening at an epoch whose (empty) segment already existed: the
		// Create truncated it; keep the single manifest entry.
	} else {
		w.man.segments = append(w.man.segments, segInfo{name: name, start: w.next})
		if err := writeManifest(w.fs, w.dir, w.man); err != nil {
			f.Close()
			return w.poison(err)
		}
	}
	w.tail = f
	w.tailStart = w.next
	w.tailSize = 0
	w.tailBatches = 0
	w.sinceSync = 0
	w.mirror()
	return nil
}

// poison records a terminal IO failure; every later call returns it. The
// engines treat a BatchLogger error as terminal for the same reason — a log
// in an unknown on-disk state cannot certify further commits.
func (w *Writer) poison(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("wal: %w", err)
	}
	return w.err
}

// LogBatch implements the BatchLogger hook: it appends the batch input
// (one record frame, see the package comment) to the tail segment,
// rotating on the size/epoch triggers and fsyncing per policy, before the
// engine commits the batch.
func (w *Writer) LogBatch(epoch uint64, txns []*txn.Txn) error {
	if w.err != nil {
		return w.err
	}
	if !w.offsetSet {
		w.offset = w.next - epoch
		w.offsetSet = true
	}
	if epoch+w.offset != w.next {
		return fmt.Errorf("wal: non-monotonic epoch %d (expected %d)", epoch, w.next-w.offset)
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, magic)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.next)
	lenAt := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0) // payloadLen + crc placeholders
	w.buf = txn.AppendBatch(w.buf, txns)
	payload := w.buf[recordHeader:]
	binary.LittleEndian.PutUint32(w.buf[lenAt:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[lenAt+4:], crc32.ChecksumIEEE(payload))
	return w.appendFrame()
}

// LogRaw appends one batch whose payload is already encoded (the replication
// path: a standby persists the leader's records verbatim, and a catch-up
// stream replays them, without a decode/re-encode round trip). Epoch rules
// are identical to LogBatch.
func (w *Writer) LogRaw(epoch uint64, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if !w.offsetSet {
		w.offset = w.next - epoch
		w.offsetSet = true
	}
	if epoch+w.offset != w.next {
		return fmt.Errorf("wal: non-monotonic epoch %d (expected %d)", epoch, w.next-w.offset)
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, magic)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.next)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, payload...)
	return w.appendFrame()
}

// appendFrame lands the frame staged in w.buf: rotate on the size trigger,
// write, fsync per policy, rotate on the epoch trigger.
func (w *Writer) appendFrame() error {
	if w.tailSize > 0 && w.tailSize+int64(len(w.buf)) > int64(w.opts.SegmentBytes) {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if _, err := w.tail.Write(w.buf); err != nil {
		return w.poison(fmt.Errorf("append epoch %d: %w", w.next, err))
	}
	w.tailSize += int64(len(w.buf))
	w.tailBatches++
	w.next++
	w.sinceSync++
	w.mBytes.Add(uint64(len(w.buf)))
	switch w.opts.Sync {
	case SyncEachBatch:
		if err := w.syncFile(w.tail); err != nil {
			return w.poison(err)
		}
		w.sinceSync = 0
	case SyncGroup:
		if w.sinceSync >= w.opts.GroupEvery {
			if err := w.syncFile(w.tail); err != nil {
				return w.poison(err)
			}
			w.sinceSync = 0
		}
	}
	if w.tailBatches >= w.opts.SegmentBatches {
		return w.rotate()
	}
	w.mirror()
	return nil
}

// NextEpoch returns the wal epoch the next LogBatch will be assigned — the
// number of batches the log (snapshot included) covers.
func (w *Writer) NextEpoch() uint64 { return w.next }

// Snapshot writes a point-in-time image of st covering every batch logged so
// far, then truncates the log behind it: the tail is sealed and restarted at
// the snapshot epoch, sealed segments and the previous snapshot are removed
// (best-effort — a crash mid-removal leaves orphans the next Open cleans).
// Call at a batch boundary, after LogBatch of the last included batch and
// with no engine executing; recovery then restores the snapshot and replays
// only the segments after it.
func (w *Writer) Snapshot(st *storage.Store) error {
	if w.err != nil {
		return w.err
	}
	epoch := w.next
	name := snapFileName(epoch)
	tmp := name + ".tmp"
	f, err := w.fs.Create(filepath.Join(w.dir, tmp))
	if err != nil {
		return w.poison(err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint64(hdr[4:], epoch)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return w.poison(err)
	}
	if err := st.WriteSnapshot(bw); err != nil {
		f.Close()
		return w.poison(err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return w.poison(err)
	}
	if err := w.syncFile(f); err != nil {
		f.Close()
		return w.poison(err)
	}
	if err := f.Close(); err != nil {
		return w.poison(err)
	}
	if err := w.fs.Rename(filepath.Join(w.dir, tmp), filepath.Join(w.dir, name)); err != nil {
		return w.poison(err)
	}
	// Seal a non-empty tail so the sole remaining segment starts exactly at
	// the snapshot epoch.
	if w.tailSize > 0 {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	oldSnap := w.man.snapName
	dropped := append([]segInfo(nil), w.man.segments[:len(w.man.segments)-1]...)
	w.man.snapName, w.man.snapEpoch = name, epoch
	w.man.segments = w.man.segments[len(w.man.segments)-1:]
	if err := writeManifest(w.fs, w.dir, w.man); err != nil {
		return w.poison(err)
	}
	// Truncation: everything below is dead the instant the manifest lands;
	// removals are best-effort (post-snapshot pre-truncate crashes leave
	// orphans, cleaned by the next Open, invisible to RecoverFrom).
	for _, seg := range dropped {
		_ = w.fs.Remove(filepath.Join(w.dir, seg.name))
	}
	if oldSnap != "" && oldSnap != name {
		_ = w.fs.Remove(filepath.Join(w.dir, oldSnap))
	}
	w.mSnapAt.Store(time.Now().UnixNano())
	w.mirror()
	return nil
}

// SnapshotEpoch returns the epoch of the log's current snapshot (0 if none):
// records below it have been truncated away and are only reachable through
// the snapshot image. The replication leader consults it to decide whether a
// standby's requested tail must be preceded by a snapshot install.
func (w *Writer) SnapshotEpoch() uint64 { return w.man.snapEpoch }

// Term returns the replication term persisted in the manifest (0 if the log
// predates terms). The term is the leader-election fencing token: a node
// promoted to leader bumps it with SetTerm before accepting new appends, and
// replication peers reject traffic stamped with a lower term.
func (w *Writer) Term() uint64 { return w.man.term }

// SetTerm durably records a new replication term in the manifest. Terms are
// monotonic; lowering the persisted term is refused so a stale promotion
// can never un-fence a newer leader's log.
func (w *Writer) SetTerm(term uint64) error {
	if w.err != nil {
		return w.err
	}
	if term < w.man.term {
		return fmt.Errorf("wal: term %d below persisted term %d", term, w.man.term)
	}
	if term == w.man.term {
		return nil
	}
	old := w.man.term
	w.man.term = term
	if err := writeManifest(w.fs, w.dir, w.man); err != nil {
		w.man.term = old
		return w.poison(err)
	}
	return nil
}

// InstallSnapshot replaces the log's entire content with a received snapshot
// image (the raw storage image a leader's Snapshot wrote, without the file
// header): the standby-side dual of Snapshot. The image is written as this
// log's own snapshot file at the given epoch, every existing segment and the
// previous snapshot are dropped, and a fresh tail starts at epoch — the next
// LogRaw/LogBatch must carry exactly that epoch. A lagging standby whose
// local log fell behind the leader's truncation point uses this to jump
// forward; its own discarded records are covered by the image.
func (w *Writer) InstallSnapshot(epoch uint64, image []byte) error {
	if w.err != nil {
		return w.err
	}
	name := snapFileName(epoch)
	tmp := name + ".tmp"
	f, err := w.fs.Create(filepath.Join(w.dir, tmp))
	if err != nil {
		return w.poison(err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint64(hdr[4:], epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return w.poison(err)
	}
	if _, err := f.Write(image); err != nil {
		f.Close()
		return w.poison(err)
	}
	if err := w.syncFile(f); err != nil {
		f.Close()
		return w.poison(err)
	}
	if err := f.Close(); err != nil {
		return w.poison(err)
	}
	if err := w.fs.Rename(filepath.Join(w.dir, tmp), filepath.Join(w.dir, name)); err != nil {
		return w.poison(err)
	}
	// The old tail is dead content; close it without fsync (its records are
	// below or beside the image either way).
	if w.tail != nil {
		if err := w.tail.Close(); err != nil {
			return w.poison(err)
		}
		w.tail = nil
	}
	oldSnap := w.man.snapName
	dropped := append([]segInfo(nil), w.man.segments...)
	w.man.snapName, w.man.snapEpoch = name, epoch
	w.man.segments = nil
	w.next = epoch
	w.offset, w.offsetSet = 0, true
	if err := w.rotate(); err != nil { // fresh tail at epoch + manifest write
		return w.err
	}
	for _, seg := range dropped {
		if seg.name == segFileName(epoch) {
			continue // rotate() reused the name for the fresh tail
		}
		_ = w.fs.Remove(filepath.Join(w.dir, seg.name))
	}
	if oldSnap != "" && oldSnap != name {
		_ = w.fs.Remove(filepath.Join(w.dir, oldSnap))
	}
	w.mirror()
	return nil
}

// SegmentCount returns the number of live segment files (test introspection).
func (w *Writer) SegmentCount() int { return len(w.man.segments) }

// Close seals the log: outstanding bytes are fsynced (every policy — a clean
// shutdown should not lose acknowledged work) and the tail file closed.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.tail != nil {
		if err := w.syncFile(w.tail); err != nil {
			return w.poison(err)
		}
		if err := w.tail.Close(); err != nil {
			return w.poison(err)
		}
		w.tail = nil
	}
	if w.err == nil {
		w.err = errors.New("wal: writer closed")
		return nil
	}
	return w.err
}

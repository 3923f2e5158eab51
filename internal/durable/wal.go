package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// WAL record framing, fixed-size header then payload:
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload]
//
// Appends are sequential under a mutex, so a torn write — the process
// died mid-append, or the OS persisted a prefix — can only sit at the
// tail of the file. Recovery stops at the first record whose header,
// length, or checksum does not verify and truncates the file there, so
// the log ends on a record boundary again and new appends cannot be
// corrupted by a stale partial suffix. Snapshot sections use the same
// frame (appendFrame, splitFrame).
const (
	walName        = "wal.log"
	frameHeader    = 8
	maxRecordBytes = 16 << 20 // sanity bound: no event comes close
)

// segWALName returns the file name of WAL segment i. Segment 0 keeps the
// historical single-file name, so an unsegmented data directory is just a
// 1-segment layout: old directories open unchanged, and Segments=1 writes
// the same files previous releases did.
func segWALName(i int) string {
	if i == 0 {
		return walName
	}
	return fmt.Sprintf("wal-%03d.log", i)
}

// parseSegWALName reports the segment index a WAL file name refers to.
// Recovery scans the directory with this, so it finds segments from a
// previous layout with a different segment count.
func parseSegWALName(name string) (int, bool) {
	if name == walName {
		return 0, true
	}
	var i int
	if n, err := fmt.Sscanf(name, "wal-%03d.log", &i); n == 1 && err == nil && i >= 0 &&
		name == segWALName(i) {
		return i, true
	}
	return 0, false
}

// FsyncPolicy selects when appended records reach stable storage. Every
// policy writes the record to the file (page cache) before the append
// returns, so an acknowledged answer survives a process crash (kill -9)
// regardless of policy; the policies differ in what survives an operating
// system crash or power loss. See DESIGN.md § Durability for the matrix.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every appended record: an ack implies the
	// record is on stable storage. The strongest and slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval batches fsyncs on a background flusher (every
	// Options.FsyncEvery): at most one flush interval of acked records is
	// exposed to a power loss.
	FsyncInterval
	// FsyncNever leaves flushing entirely to the operating system.
	FsyncNever
)

// String returns the flag-style name of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsync parses a -fsync flag value: "always", "off" (or "none"), or
// a Go duration such as "100ms" selecting interval-batched flushing.
func ParseFsync(s string) (FsyncPolicy, time.Duration, error) {
	switch s {
	case "", "always":
		return FsyncAlways, 0, nil
	case "off", "none", "never":
		return FsyncNever, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("durable: fsync policy %q is not \"always\", \"off\", or a positive duration", s)
	}
	return FsyncInterval, d, nil
}

// walInstruments are the always-on instruments for WAL I/O (obs types are
// lock-free atomics); exposed on a registry via Store.RegisterMetrics.
// With a segmented log, every segment shares one instrument set, so the
// exported series aggregate the whole store exactly as they did with a
// single file.
type walInstruments struct {
	appendLat *obs.Histogram
	fsyncLat  *obs.Histogram
	records   obs.Counter
	bytes     obs.Counter
	fsyncs    obs.Counter
}

func newWALInstruments() *walInstruments {
	return &walInstruments{
		appendLat: obs.NewHistogram(obs.DefIOBuckets...),
		fsyncLat:  obs.NewHistogram(obs.DefIOBuckets...),
	}
}

// wal is the append side of one log file. Callers (the Store) serialize
// record ordering; the internal mutex only keeps the file operations
// themselves coherent. An fsync runs outside it, so appends keep flowing
// while one is in flight. Callers serialize sync and close against each
// other — the Store calls both under its segment's syncMu — so the file
// is never released under an fsync.
type wal struct {
	mu    sync.Mutex
	f     *os.File
	buf   []byte // scratch frame assembly, reused across appends
	dirty bool   // bytes written since the last fsync began

	ins *walInstruments
}

// openWAL opens (creating if needed) the log file for appending, with its
// own instrument set.
func openWAL(path string) (*wal, error) {
	return openWALShared(path, newWALInstruments())
}

// openWALShared opens the log file with a caller-supplied instrument set,
// so multiple segments aggregate into the same series.
func openWALShared(path string, ins *walInstruments) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening WAL: %w", err)
	}
	return &wal{f: f, ins: ins}, nil
}

// append frames one record whose payload is the concatenation of parts
// and writes it in a single write call, so a crash tears at most the final
// record.
func (w *wal) append(parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 || n > maxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes outside (0, %d]", n, maxRecordBytes)
	}
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("durable: append to closed WAL")
	}
	frame := appendFrame(w.buf[:0], parts...)
	w.buf = frame
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("durable: WAL append: %w", err)
	}
	w.dirty = true
	w.ins.records.Inc()
	w.ins.bytes.Add(int64(len(frame)))
	w.ins.appendLat.ObserveDuration(time.Since(start))
	return nil
}

// sync flushes outstanding appends to stable storage (no-op when clean).
// dirty is cleared before the fsync starts, so an append that lands
// during it marks the file for the next one; a failed fsync restores it.
// Because callers serialize syncs, one that finds the file clean returns
// only after the fsync that cleaned it.
func (w *wal) sync() error {
	w.mu.Lock()
	f, dirty := w.f, w.dirty
	w.dirty = false
	w.mu.Unlock()
	if !dirty || f == nil {
		return nil
	}
	if err := w.fsync(f); err != nil {
		w.mu.Lock()
		w.dirty = true
		w.mu.Unlock()
		return err
	}
	return nil
}

// fsync flushes f and records it.
func (w *wal) fsync(f *os.File) error {
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: WAL fsync: %w", err)
	}
	w.ins.fsyncs.Inc()
	w.ins.fsyncLat.ObserveDuration(time.Since(start))
	return nil
}

// truncate discards the log's contents after its records were folded into
// a published snapshot. The store guarantees no append races this call.
func (w *wal) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: WAL truncate: %w", err)
	}
	// O_APPEND writes position themselves at the (now zero) end of file;
	// make the truncation itself durable so a crash cannot resurrect
	// pre-snapshot records behind the snapshot's back.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: WAL truncate sync: %w", err)
	}
	w.dirty = false
	return nil
}

// close syncs (unless skipSync) and closes the file.
func (w *wal) close(skipSync bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if !skipSync && w.dirty {
		err = w.fsync(w.f)
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// appendFrame appends one frame to dst whose payload is the concatenation
// of parts.
func appendFrame(dst []byte, parts ...[]byte) []byte {
	n, crc := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	dst = slices.Grow(dst, frameHeader+n)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// splitFrame splits the frame at the start of b into its payload and the
// bytes after it. ok is false when the header is torn, the length is zero
// or above limit, the payload is torn, or its checksum does not match.
func splitFrame(b []byte, limit uint32) (payload, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > limit || uint64(n) > uint64(len(b)-frameHeader) {
		return nil, nil, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, nil, false
	}
	return payload, b[frameHeader+int(n):], true
}

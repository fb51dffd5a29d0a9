// Package planstore is the disk-backed second tier of the plan cache: a
// content-addressed append-only log that survives daemon restarts, so a
// rebooted cachemapd warm-starts with every plan it ever computed instead
// of re-paying the tags→similarity→cluster pipeline per hot key (the
// ROADMAP's "persistent warm-start plan store"; decomposition as a
// preservable runtime artifact, after Paulino & Delgado).
//
// The plan cache reaches the Log through WriteBehind (see writebehind.go),
// which reads it on a memory miss and feeds it computed plans through a
// bounded queue, so the cache's memory LRU and singleflight never wait on
// a disk write.
//
// On-disk format (all integers little-endian), one file Dir/plans.log:
//
//	record  := header payload
//	header  := magic(4) payloadLen(4) schema(4) flags(4) key(32) crc32c(4)
//	payload := payloadLen opaque bytes (the codec's encoding of the value)
//
// The CRC32C (Castagnoli) covers payloadLen through key plus the payload,
// so a torn header, a torn payload and a bit flip are all detected. A
// record for an already-present key supersedes the earlier one (append-only
// update); flag bit 0 marks a tombstone (payloadLen 0), written when
// capacity pressure evicts a key so the eviction survives restart.
//
// Crash recovery is the startup scan: Open reads the log sequentially,
// verifying every checksum, rebuilding the in-memory key→offset index, and
// — at the first truncated or corrupt record — counts the torn tail as
// skipped, truncates the file back to the last good record and serves
// everything before it. Records whose value schema version differs from
// Options.Schema are well-formed but unreadable by this build; the scan
// drops them (counted separately) and their bytes become dead.
//
// Superseded records, tombstones and schema-dropped records accumulate as
// dead bytes; when they exceed half of a log of at least 64 KiB, Put
// rewrites the live records into a fresh log and atomically renames it
// into place (Compact forces the same rewrite — the snapshot operation
// behind POST /debug/cache/snapshot; restoring a snapshot is just the
// normal startup scan).
//
// The Log is safe for concurrent use. It assumes one process per
// directory, like any log-structured store.
package planstore

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/plancache"
)

// FsyncPolicy selects when appended records are forced to stable storage.
// The zero value is FsyncBatch.
type FsyncPolicy int

const (
	// FsyncBatch syncs once per drained write-behind batch (see
	// WriteBehind): bounded data loss on power failure, near-zero fsync
	// cost under load. Process crashes (kill -9) lose nothing under any
	// policy — appended bytes live in the OS page cache.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways syncs after every appended record: no loss window, one
	// fsync per plan.
	FsyncAlways
	// FsyncNever leaves flushing entirely to the OS.
	FsyncNever
)

// ParseFsyncPolicy parses the -store-fsync flag spelling.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("planstore: unknown fsync policy %q (want always, batch or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "batch"
	}
}

// Codec encodes and decodes values for the log's opaque payloads. Decode
// may keep the bytes it is given: the log reads each payload it decodes
// into a fresh buffer and never reuses it.
type Codec[V any] struct {
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// Options parameterizes Open.
type Options struct {
	// Dir is the store directory (created if absent). Required.
	Dir string
	// Capacity bounds live records; least recently used entries beyond it
	// are evicted with a persisted tombstone. 0 = unbounded.
	Capacity int
	// Schema is the value schema version stamped into every record; the
	// startup scan drops records written under any other version.
	Schema uint32
	// Fsync selects the durability policy (default FsyncBatch).
	Fsync FsyncPolicy
}

// Stats is a snapshot of the log's cumulative and current state.
type Stats struct {
	// Records is the number of live (indexed) records.
	Records int
	// WarmRecords is the number of records the startup scan restored.
	WarmRecords int
	// LiveBytes and DeadBytes partition the log file; TotalBytes is their
	// sum (the file size).
	LiveBytes, DeadBytes, TotalBytes int64
	// SkippedRecords counts truncated/corrupt tail records the startup
	// scan skipped (the crash-recovery path).
	SkippedRecords int64
	// SchemaDropped counts well-formed records dropped because their value
	// schema version differs from this build's.
	SchemaDropped int64
	// Appends counts records appended (including tombstones).
	Appends int64
	// Evictions counts live records displaced by capacity pressure.
	Evictions int64
	// Compactions counts live-record rewrites (automatic and forced).
	Compactions int64
	// Syncs counts explicit fsyncs of the log file.
	Syncs int64
	// ReadErrors counts Get-path failures (I/O, checksum, decode); each is
	// served as a miss rather than an error.
	ReadErrors int64
	// EncodeErrors and WriteErrors count Put-path failures; each drops the
	// Put (the store stays consistent, the entry is simply not persisted).
	EncodeErrors, WriteErrors int64
}

const (
	logFileName = "plans.log"

	recMagic   = uint32(0x314C5350) // "PSL1" little-endian
	headerSize = 52

	offMagic   = 0
	offLen     = 4
	offSchema  = 8
	offFlags   = 12
	offKey     = 16
	offCRC     = 48
	crcedStart = offLen // CRC covers [payloadLen, crc) + payload

	flagTombstone = uint32(1)

	// compactRatio is the dead/total byte ratio above which an append
	// compacts a log of at least compactMinBytes.
	compactRatio    = 0.5
	compactMinBytes = 64 << 10
	// maxValueBytes is the scan's sanity bound on payload length; a header
	// declaring more is treated as corruption.
	maxValueBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rec is one live record's index entry.
type rec struct {
	key plancache.Key
	off int64 // file offset of the record header
	n   int   // payload length
}

func (r *rec) size() int64 { return headerSize + int64(r.n) }

// Log is the disk tier: an append-only record log with an in-memory
// key→offset index rebuilt by the startup scan. The index keeps its own
// recency list, which eviction and compaction walk oldest-first.
type Log[V any] struct {
	mu    sync.Mutex
	opts  Options
	codec Codec[V]
	path  string
	f     *os.File

	size int64 // append position (file length up to the last good record)
	dead int64 // bytes held by superseded records, tombstones and drops

	index map[plancache.Key]*list.Element
	ll    *list.List // front = most recently used; values are *rec

	warm                                  int
	skipped, schemaDropped                int64
	appends, evictions, compactions       int64
	syncs, readErrors, encodeErrs, wrErrs int64
}

// Open opens (creating if absent) the log in opts.Dir and rebuilds its
// index with the verifying startup scan. A torn or corrupt tail is
// skipped and truncated away, never an error; only real I/O and
// configuration problems fail Open.
func Open[V any](opts Options, codec Codec[V]) (*Log[V], error) {
	if opts.Dir == "" {
		return nil, errors.New("planstore: Options.Dir is required")
	}
	if codec.Encode == nil || codec.Decode == nil {
		return nil, errors.New("planstore: Codec.Encode and Codec.Decode are required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	path := filepath.Join(opts.Dir, logFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	l := &Log[V]{
		opts:  opts,
		codec: codec,
		path:  path,
		f:     f,
		index: make(map[plancache.Key]*list.Element),
		ll:    list.New(),
	}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, fmt.Errorf("planstore: scanning %s: %w", path, err)
	}
	l.warm = len(l.index)
	// A capacity shrunk between runs evicts the scan's least recent
	// extras, exactly as a Put would.
	for l.opts.Capacity > 0 && l.ll.Len() > l.opts.Capacity {
		l.evictOldestLocked()
	}
	return l, nil
}

// scan rebuilds the index from the log, verifying every record's checksum.
// The first truncated or corrupt record marks the torn tail: it is counted
// as skipped, the file is truncated back to the last good record, and the
// scan stops — everything before the tear is served.
func (l *Log[V]) scan() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(l.f, 1<<16)
	hdr := make([]byte, headerSize)
	var payload []byte
	var off int64
	torn := false
	for {
		if n, err := io.ReadFull(r, hdr); err != nil {
			if n == 0 && err == io.EOF {
				break // clean end of log
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return err
		}
		plen := int(binary.LittleEndian.Uint32(hdr[offLen:]))
		if binary.LittleEndian.Uint32(hdr[offMagic:]) != recMagic || plen > maxValueBytes {
			torn = true
			break
		}
		if cap(payload) < plen {
			payload = make([]byte, plen+plen/2)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return err
		}
		crc := crc32.Update(crc32.Checksum(hdr[crcedStart:offCRC], castagnoli), castagnoli, payload)
		if crc != binary.LittleEndian.Uint32(hdr[offCRC:]) {
			torn = true
			break
		}

		recSize := int64(headerSize + plen)
		schema := binary.LittleEndian.Uint32(hdr[offSchema:])
		flags := binary.LittleEndian.Uint32(hdr[offFlags:])
		var key plancache.Key
		copy(key[:], hdr[offKey:offKey+32])
		switch {
		case schema != l.opts.Schema:
			l.schemaDropped++
			l.dead += recSize
		case flags&flagTombstone != 0:
			if el, ok := l.index[key]; ok {
				l.dead += el.Value.(*rec).size()
				l.ll.Remove(el)
				delete(l.index, key)
			}
			l.dead += recSize
		default:
			if el, ok := l.index[key]; ok {
				old := el.Value.(*rec)
				l.dead += old.size()
				old.off, old.n = off, plen
				l.ll.MoveToFront(el)
			} else {
				l.index[key] = l.ll.PushFront(&rec{key: key, off: off, n: plen})
			}
		}
		off += recSize
	}
	if torn {
		l.skipped++
		if err := l.f.Truncate(off); err != nil {
			return err
		}
	}
	l.size = off
	return nil
}

// Get returns the stored value for k, if present, refreshing its recency.
// Any read-path failure (I/O, checksum, decode) counts as a read error and
// serves as a miss: the caller recomputes, it never sees a broken plan.
func (l *Log[V]) Get(k plancache.Key) (V, bool) {
	var zero V
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.index[k]
	if !ok {
		return zero, false
	}
	v, err := l.readLocked(el.Value.(*rec))
	if err != nil {
		l.readErrors++
		return zero, false
	}
	l.ll.MoveToFront(el)
	return v, true
}

// readLocked reads and decodes one indexed record, re-verifying its
// checksum (the scan verified it once; disks rot). The read buffer is the
// decoded value's to keep (see Codec).
func (l *Log[V]) readLocked(rc *rec) (V, error) {
	var zero V
	buf := make([]byte, rc.size())
	if _, err := l.f.ReadAt(buf, rc.off); err != nil {
		return zero, err
	}
	crc := crc32.Update(crc32.Checksum(buf[crcedStart:offCRC], castagnoli), castagnoli, buf[headerSize:])
	if binary.LittleEndian.Uint32(buf[offMagic:]) != recMagic ||
		crc != binary.LittleEndian.Uint32(buf[offCRC:]) {
		return zero, fmt.Errorf("record at offset %d failed its checksum", rc.off)
	}
	return l.codec.Decode(buf[headerSize:])
}

// Put appends (or supersedes) k → v, evicting the least recently used
// records beyond Capacity. Encode or write failures drop the Put
// (counted); the index never references bytes that were not fully
// appended.
func (l *Log[V]) Put(k plancache.Key, v V) {
	payload, err := l.codec.Encode(v)
	if err != nil {
		l.mu.Lock()
		l.encodeErrs++
		l.mu.Unlock()
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	off, err := l.appendLocked(k, payload, 0)
	if err != nil {
		l.wrErrs++
		return
	}
	if el, ok := l.index[k]; ok {
		old := el.Value.(*rec)
		l.dead += old.size()
		old.off, old.n = off, len(payload)
		l.ll.MoveToFront(el)
	} else {
		l.index[k] = l.ll.PushFront(&rec{key: k, off: off, n: len(payload)})
	}
	for l.opts.Capacity > 0 && l.ll.Len() > l.opts.Capacity {
		l.evictOldestLocked()
	}
	l.maybeCompactLocked()
}

// countWriteError counts a Put that failed outside the log's own checks.
func (l *Log[V]) countWriteError() {
	l.mu.Lock()
	l.wrErrs++
	l.mu.Unlock()
}

// appendLocked writes one record at the current end of the log and returns
// its offset. With FsyncAlways the record is synced before it is indexed.
func (l *Log[V]) appendLocked(k plancache.Key, payload []byte, flags uint32) (int64, error) {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[offMagic:], recMagic)
	binary.LittleEndian.PutUint32(buf[offLen:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[offSchema:], l.opts.Schema)
	binary.LittleEndian.PutUint32(buf[offFlags:], flags)
	copy(buf[offKey:], k[:])
	copy(buf[headerSize:], payload)
	crc := crc32.Update(crc32.Checksum(buf[crcedStart:offCRC], castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(buf[offCRC:], crc)
	off := l.size
	if _, err := l.f.WriteAt(buf, off); err != nil {
		return 0, err
	}
	l.size += int64(len(buf))
	l.appends++
	if l.opts.Fsync == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, err
		}
		l.syncs++
	}
	return off, nil
}

// evictOldestLocked displaces the least recently used record: the index
// entry is dropped and a tombstone is appended so the eviction survives
// restart.
func (l *Log[V]) evictOldestLocked() {
	el := l.ll.Back()
	rc := el.Value.(*rec)
	l.ll.Remove(el)
	delete(l.index, rc.key)
	l.dead += rc.size()
	l.evictions++
	if toff, terr := l.appendLocked(rc.key, nil, flagTombstone); terr == nil {
		l.dead += l.size - toff
	} else {
		l.wrErrs++
	}
}

// maybeCompactLocked compacts when dead bytes dominate a non-trivial log.
func (l *Log[V]) maybeCompactLocked() {
	if l.size >= compactMinBytes && float64(l.dead) > compactRatio*float64(l.size) {
		l.compactLocked()
	}
}

// Compact forces a live-record rewrite: the log shrinks to exactly its
// live records, atomically (write new file, fsync, rename over). This is
// the snapshot operation — the resulting file is a clean, checksummed,
// immediately warm-scannable image of the store.
func (l *Log[V]) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked()
}

func (l *Log[V]) compactLocked() error {
	tmpPath := l.path + ".compact"
	tf, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.wrErrs++
		return err
	}
	fail := func(err error) error {
		tf.Close()
		os.Remove(tmpPath)
		l.wrErrs++
		return err
	}
	// Live records are copied verbatim (checksums are content-only, so
	// they stay valid), oldest-first: the restart scan pushes each onto
	// the recency list in file order, reproducing today's LRU order.
	var off int64
	newOff := make(map[*rec]int64, len(l.index))
	for el := l.ll.Back(); el != nil; el = el.Prev() {
		rc := el.Value.(*rec)
		buf := make([]byte, rc.size())
		if _, err := l.f.ReadAt(buf, rc.off); err != nil {
			return fail(err)
		}
		if _, err := tf.WriteAt(buf, off); err != nil {
			return fail(err)
		}
		newOff[rc] = off
		off += rc.size()
	}
	if err := tf.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		return fail(err)
	}
	syncDir(l.opts.Dir)
	l.f.Close()
	l.f = tf
	for rc, o := range newOff {
		rc.off = o
	}
	l.size = off
	l.dead = 0
	l.compactions++
	l.syncs++
	return nil
}

// syncDir best-effort fsyncs a directory so a rename is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Sync forces appended records to stable storage.
func (l *Log[V]) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	return nil
}

// Dir returns the store directory.
func (l *Log[V]) Dir() string { return l.opts.Dir }

// Stats returns a snapshot of the log's state and cumulative counters.
func (l *Log[V]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:        len(l.index),
		WarmRecords:    l.warm,
		LiveBytes:      l.size - l.dead,
		DeadBytes:      l.dead,
		TotalBytes:     l.size,
		SkippedRecords: l.skipped,
		SchemaDropped:  l.schemaDropped,
		Appends:        l.appends,
		Evictions:      l.evictions,
		Compactions:    l.compactions,
		Syncs:          l.syncs,
		ReadErrors:     l.readErrors,
		EncodeErrors:   l.encodeErrs,
		WriteErrors:    l.wrErrs,
	}
}

// Close syncs and closes the log file.
func (l *Log[V]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	serr := l.f.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

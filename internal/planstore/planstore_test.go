package planstore

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/plancache"
)

// key derives a distinct test key from s.
func key(s string) plancache.Key { return plancache.Key(sha256.Sum256([]byte(s))) }

// stringCodec is the test codec: values are their own bytes.
var stringCodec = Codec[string]{
	Encode: func(s string) ([]byte, error) { return []byte(s), nil },
	Decode: func(b []byte) (string, error) { return string(b), nil },
}

func openTestLog(t *testing.T, opts Options) *Log[string] {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, err := Open[string](opts, stringCodec)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestLogConformance pins the log's contract — round trip, replace, a
// capacity bound with exactly the least recent entries evicted, and
// concurrency safety — in its default shape, with values large enough
// that compaction fires inside the churn (it must be invisible to the
// contract), and with a sync per record.
func TestLogConformance(t *testing.T) {
	runLogContract(t, "Log", Options{}, 0)
	compacting := runLogContract(t, "LogCompacting", Options{}, 8<<10)
	runLogContract(t, "LogFsyncAlways", Options{Fsync: FsyncAlways}, 0)
	var compactions int64
	for _, l := range compacting {
		compactions += l.Stats().Compactions
	}
	if compactions == 0 {
		t.Fatal("the LogCompacting churn never compacted")
	}
}

// runLogContract runs the contract against fresh logs opened with opts and
// a capacity, padding every value to at least pad bytes, and returns the
// logs it opened.
func runLogContract(t *testing.T, name string, opts Options, pad int) []*Log[string] {
	var opened []*Log[string]
	mk := func(t *testing.T, capacity int) *Log[string] {
		o := opts
		o.Capacity = capacity
		l := openTestLog(t, o)
		opened = append(opened, l)
		return l
	}
	val := func(s string) string {
		if len(s) < pad {
			s += strings.Repeat(".", pad-len(s))
		}
		return s
	}

	t.Run(name+"/RoundTrip", func(t *testing.T) {
		l := mk(t, 8)
		if _, ok := l.Get(key("absent")); ok {
			t.Fatal("Get on an empty log reported a hit")
		}
		l.Put(key("a"), val("A"))
		if v, ok := l.Get(key("a")); !ok || v != val("A") {
			t.Fatalf("Get(a) = %.8q, %v; want A, true", v, ok)
		}
		if st := l.Stats(); st.Records != 1 || st.Evictions != 0 {
			t.Fatalf("Records = %d, Evictions = %d; want 1, 0", st.Records, st.Evictions)
		}
	})

	t.Run(name+"/Replace", func(t *testing.T) {
		l := mk(t, 8)
		l.Put(key("a"), val("A1"))
		l.Put(key("a"), val("A2"))
		if v, ok := l.Get(key("a")); !ok || v != val("A2") {
			t.Fatalf("Get(a) = %.8q, %v; want the replacement A2", v, ok)
		}
		if st := l.Stats(); st.Records != 1 || st.Evictions != 0 {
			t.Fatalf("after replace: Records = %d, Evictions = %d; want 1, 0", st.Records, st.Evictions)
		}
	})

	t.Run(name+"/CapacityBound", func(t *testing.T) {
		const limit = 4
		l := mk(t, limit)
		for i := 0; i < 3*limit; i++ {
			l.Put(key(fmt.Sprintf("k%d", i)), val(fmt.Sprintf("v%d", i)))
			if st := l.Stats(); st.Records != min(i+1, limit) || st.Evictions != int64(max(0, i+1-limit)) {
				t.Fatalf("after %d puts: Records = %d, Evictions = %d", i+1, st.Records, st.Evictions)
			}
		}
		// The most recent limit keys read back; every older one is gone.
		for i := 0; i < 3*limit; i++ {
			v, ok := l.Get(key(fmt.Sprintf("k%d", i)))
			if live := i >= 2*limit; ok != live || (live && v != val(fmt.Sprintf("v%d", i))) {
				t.Fatalf("k%d: Get = %.8q, %v; want live = %v", i, v, ok, live)
			}
		}
	})

	t.Run(name+"/Concurrent", func(t *testing.T) {
		l := mk(t, 32)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := key(fmt.Sprintf("c%d", (g+i)%48))
					if i%3 == 0 {
						l.Put(k, val(fmt.Sprintf("g%d", g)))
					} else if v, ok := l.Get(k); ok && !strings.HasPrefix(v, "g") {
						t.Errorf("Get read back %.8q", v)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if st := l.Stats(); st.Records > 32 || st.ReadErrors != 0 {
			t.Fatalf("after concurrent churn: Records = %d (capacity 32), ReadErrors = %d", st.Records, st.ReadErrors)
		}
	})
	return opened
}

func TestWarmScanRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	const n = 20
	for i := 0; i < n; i++ {
		l.Put(key(fmt.Sprintf("k%d", i)), fmt.Sprintf("v%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openTestLog(t, Options{Dir: dir})
	st := l2.Stats()
	if st.WarmRecords != n || st.Records != n {
		t.Fatalf("warm scan restored %d records (%d warm), want %d", st.Records, st.WarmRecords, n)
	}
	if st.SkippedRecords != 0 {
		t.Fatalf("clean log scan skipped %d records", st.SkippedRecords)
	}
	for i := 0; i < n; i++ {
		v, ok := l2.Get(key(fmt.Sprintf("k%d", i)))
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("after restart Get(k%d) = %q, %v", i, v, ok)
		}
	}
}

// TestScanSkipsTornTail is the crash-during-write case: a record torn
// mid-payload (or mid-header) must be skipped and truncated away, with
// everything before the tear served and the skip counted.
func TestScanSkipsTornTail(t *testing.T) {
	for _, cut := range []int64{3, headerSize - 5, headerSize + 1} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l := openTestLog(t, Options{Dir: dir})
			l.Put(key("a"), "alpha")
			l.Put(key("b"), "beta")
			l.Put(key("c"), "gamma")
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			path := filepath.Join(dir, logFileName)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// Tear the last record: leave `cut` bytes of it.
			lastStart := fi.Size() - (headerSize + int64(len("gamma")))
			if err := os.Truncate(path, lastStart+cut); err != nil {
				t.Fatal(err)
			}

			l2 := openTestLog(t, Options{Dir: dir})
			st := l2.Stats()
			if st.SkippedRecords != 1 {
				t.Fatalf("SkippedRecords = %d, want 1", st.SkippedRecords)
			}
			if st.Records != 2 {
				t.Fatalf("Records = %d, want the 2 before the tear", st.Records)
			}
			for k, want := range map[string]string{"a": "alpha", "b": "beta"} {
				if v, ok := l2.Get(key(k)); !ok || v != want {
					t.Fatalf("Get(%s) = %q, %v; want %q", k, v, ok, want)
				}
			}
			if _, ok := l2.Get(key("c")); ok {
				t.Fatal("torn record still served")
			}
			// The tail was truncated back to the last good record, so new
			// appends land on a clean boundary and survive another restart.
			if fi2, _ := os.Stat(path); fi2.Size() != lastStart {
				t.Fatalf("log size %d after recovery, want %d", fi2.Size(), lastStart)
			}
			l2.Put(key("d"), "delta")
			if err := l2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l3 := openTestLog(t, Options{Dir: dir})
			if st := l3.Stats(); st.Records != 3 || st.SkippedRecords != 0 {
				t.Fatalf("after re-append: Records = %d, Skipped = %d; want 3, 0", st.Records, st.SkippedRecords)
			}
		})
	}
}

// TestScanSkipsGarbageTail covers tail corruption that is not a clean
// truncation: a wrong magic and a flipped payload bit.
func TestScanSkipsGarbageTail(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	l.Put(key("a"), "alpha")
	l.Put(key("b"), "beta")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, logFileName)

	// Flip one bit inside the last record's payload: its CRC fails.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openTestLog(t, Options{Dir: dir})
	if st := l2.Stats(); st.SkippedRecords != 1 || st.Records != 1 {
		t.Fatalf("bit flip: Skipped = %d, Records = %d; want 1, 1", st.SkippedRecords, st.Records)
	}
	if v, ok := l2.Get(key("a")); !ok || v != "alpha" {
		t.Fatalf("Get(a) = %q, %v after tail corruption", v, ok)
	}
	l2.Close()
}

func TestScanDropsSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Schema: 1})
	l.Put(key("a"), "alpha")
	l.Put(key("b"), "beta")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openTestLog(t, Options{Dir: dir, Schema: 2})
	st := l2.Stats()
	if st.Records != 0 || st.SchemaDropped != 2 {
		t.Fatalf("schema bump: Records = %d, SchemaDropped = %d; want 0, 2", st.Records, st.SchemaDropped)
	}
	if st.SkippedRecords != 0 {
		t.Fatalf("schema mismatch counted as corruption: Skipped = %d", st.SkippedRecords)
	}
	// The dropped records are dead bytes; a new put under the new schema
	// coexists until compaction clears them.
	l2.Put(key("a"), "alpha-v2")
	if v, ok := l2.Get(key("a")); !ok || v != "alpha-v2" {
		t.Fatalf("Get under new schema = %q, %v", v, ok)
	}
	l2.Close()
}

// TestTombstoneSurvivesRestart: a capacity eviction is persisted as a
// tombstone, so the evicted key stays gone after a restart even when the
// restart's capacity would have room for it.
func TestTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Capacity: 2})
	l.Put(key("k0"), "v0")
	l.Put(key("k1"), "v1")
	l.Put(key("k2"), "v2") // evicts k0 (LRU)
	if _, ok := l.Get(key("k0")); ok || l.Stats().Evictions != 1 {
		t.Fatalf("k0 still readable or Evictions = %d; want k0 evicted once", l.Stats().Evictions)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openTestLog(t, Options{Dir: dir, Capacity: 100})
	if _, ok := l2.Get(key("k0")); ok {
		t.Fatal("tombstoned k0 resurrected by restart")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := l2.Get(key(k)); !ok {
			t.Fatalf("%s missing after restart", k)
		}
	}
	l2.Close()
}

func TestCompaction(t *testing.T) {
	l := openTestLog(t, Options{})
	k := key("hot")
	pad := strings.Repeat(".", 4<<10)
	for i := 0; i < 50; i++ { // 50 × 4 KiB: well past the 64 KiB floor
		l.Put(k, fmt.Sprintf("version-%d", i)+pad)
	}
	st := l.Stats()
	if st.Compactions == 0 {
		t.Fatalf("50 supersedes of one key never compacted (dead=%d total=%d)", st.DeadBytes, st.TotalBytes)
	}
	if v, ok := l.Get(k); !ok || v != "version-49"+pad {
		t.Fatalf("Get after compaction = %.16q, %v", v, ok)
	}

	// A forced compaction (the snapshot path) leaves zero dead bytes and a
	// file of exactly the live records.
	l.Put(k, "final")
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st = l.Stats()
	if st.DeadBytes != 0 || st.TotalBytes != st.LiveBytes {
		t.Fatalf("after forced compaction: dead=%d total=%d live=%d", st.DeadBytes, st.TotalBytes, st.LiveBytes)
	}

	// The compacted log is a valid snapshot: a fresh scan restores it.
	dir := l.Dir()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := openTestLog(t, Options{Dir: dir})
	if v, ok := l2.Get(k); !ok || v != "final" {
		t.Fatalf("Get after compact+restart = %q, %v", v, ok)
	}
	l2.Close()
}

// TestCompactionPreservesRecency: restart after compaction must evict in
// the same LRU order as before it.
func TestCompactionPreservesRecency(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := 0; i < 4; i++ {
		l.Put(key(fmt.Sprintf("k%d", i)), fmt.Sprintf("v%d", i))
	}
	l.Get(key("k0")) // k0 becomes most recent; k1 is now LRU
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := openTestLog(t, Options{Dir: dir, Capacity: 3})
	if _, ok := l2.Get(key("k1")); ok {
		t.Fatal("capacity 3 restart kept k1, which was LRU at compaction time")
	}
	if _, ok := l2.Get(key("k0")); !ok {
		t.Fatal("capacity 3 restart dropped k0, which was MRU at compaction time")
	}
	l2.Close()
}

// TestWriteBehindPromotion: under a plan cache with a 1-entry memory tier,
// an entry displaced from memory is served from the log, counted as a
// disk hit and promoted, so the next lookup is a pure memory hit.
func TestWriteBehindPromotion(t *testing.T) {
	wb := NewWriteBehind(openTestLog(t, Options{}), 16, nil)
	defer wb.Close()
	c := plancache.New[string](1, wb)
	ctx := context.Background()
	computed := func(v string) func(context.Context) (string, error) {
		return func(context.Context) (string, error) { return v, nil }
	}

	c.Do(ctx, key("k1"), computed("v1"))
	c.Do(ctx, key("k2"), computed("v2")) // displaces k1 from memory
	if !wb.Flush() {
		t.Fatal("Flush on an open store returned false")
	}
	if v, hit, err := c.Do(ctx, key("k1"), computed("recomputed")); !hit || v != "v1" || err != nil {
		t.Fatalf("memory-evicted k1: Do = %q, %v, %v; want the disk copy", v, hit, err)
	}
	dropped, _ := wb.Stats()
	if hits := c.Stats().DiskHits; hits != 1 || dropped != 0 {
		t.Fatalf("disk hits = %d, dropped = %d; want 1, 0", hits, dropped)
	}
	if v, hit, _ := c.Do(ctx, key("k1"), computed("recomputed")); !hit || v != "v1" {
		t.Fatalf("promoted k1: Do = %q, %v", v, hit)
	}
	if hits := c.Stats().DiskHits; hits != 1 {
		t.Fatalf("second lookup read the disk again: disk hits = %d", hits)
	}
}

// TestWriteBehindDropOnPressure: with the writer stalled and the queue
// full, Put drops the disk write (counted) instead of blocking the caller.
func TestWriteBehindDropOnPressure(t *testing.T) {
	back := openTestLog(t, Options{})
	gate := make(chan struct{})
	wb := newWriteBehind(back, 1, nil, gate)

	wb.Put(key("q1"), "v1") // writer picks this up and stalls on the gate
	for {                   // wait for the writer to hold q1, emptying the queue
		if _, depth := wb.Stats(); depth == 0 {
			break
		}
		runtime.Gosched()
	}
	wb.Put(key("q2"), "v2") // sits in the 1-slot queue
	wb.Put(key("q3"), "v3") // queue full: dropped

	if dropped, _ := wb.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	close(gate)
	wb.Flush()
	if _, ok := back.Get(key("q3")); ok {
		t.Fatal("dropped write reached disk anyway")
	}
	for _, k := range []string{"q1", "q2"} {
		if _, ok := back.Get(key(k)); !ok {
			t.Fatalf("queued write %s never reached disk", k)
		}
	}
	if err := wb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWriteBehindSurvivesPanic: a codec whose Encode panics once costs
// that one write, counted as a failed write and reported with its stack;
// the writer goes on, so the next Put lands and Flush returns.
func TestWriteBehindSurvivesPanic(t *testing.T) {
	var panicked sync.Once
	codec := Codec[string]{
		Encode: func(s string) ([]byte, error) {
			panicked.Do(func() { panic("encode boom") })
			return []byte(s), nil
		},
		Decode: stringCodec.Decode,
	}
	l, err := Open[string](Options{Dir: t.TempDir()}, codec)
	if err != nil {
		t.Fatal(err)
	}
	var reports []string
	wb := NewWriteBehind(l, 4, func(p any, stack []byte) {
		reports = append(reports, fmt.Sprintf("%v", p))
		if !strings.Contains(string(stack), "TestWriteBehindSurvivesPanic") {
			t.Errorf("reported stack does not reach the panicking Encode:\n%s", stack)
		}
	})
	defer wb.Close()
	wb.Put(key("a"), "lost")
	wb.Put(key("b"), "kept")
	if !wb.Flush() {
		t.Fatal("Flush after a panicking write returned false")
	}
	if _, ok := l.Get(key("a")); ok {
		t.Fatal("the write whose Encode panicked reached the log")
	}
	if v, ok := l.Get(key("b")); !ok || v != "kept" {
		t.Fatalf("the next write: %q, %v; want it in the log", v, ok)
	}
	if st := l.Stats(); st.WriteErrors != 1 {
		t.Fatalf("WriteErrors = %d, want 1", st.WriteErrors)
	}
	if len(reports) != 1 || reports[0] != "encode boom" {
		t.Fatalf("onPanic saw %q, want one \"encode boom\"", reports)
	}
}

func TestWriteBehindCloseIdempotent(t *testing.T) {
	wb := NewWriteBehind(openTestLog(t, Options{}), 4, nil)
	wb.Put(key("a"), "v")
	if err := wb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := wb.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if wb.Flush() {
		t.Fatal("Flush on a closed store returned true")
	}
	// Put after Close must not panic (send on closed channel): the write
	// is simply not persisted.
	wb.Put(key("b"), "v2")
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{"always": FsyncAlways, "batch": FsyncBatch, "never": FsyncNever} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() != in {
			t.Fatalf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open[string](Options{}, stringCodec); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
	if _, err := Open[string](Options{Dir: t.TempDir()}, Codec[string]{}); err == nil {
		t.Fatal("Open without codec funcs succeeded")
	}
}

// BenchmarkWarmScan measures the startup scan: an N-record log opened into
// a fully verified in-memory index. Reported as records/s plus the scan's
// allocation footprint — the warm-start path a restarted daemon pays
// before it can serve.
func BenchmarkWarmScan(b *testing.B) {
	const records = 2048
	dir := b.TempDir()
	l, err := Open[string](Options{Dir: dir}, stringCodec)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	for i := 0; i < records; i++ {
		l.Put(key(fmt.Sprintf("bench-%d", i)), string(payload))
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open[string](Options{Dir: dir}, stringCodec)
		if err != nil {
			b.Fatal(err)
		}
		if l.Stats().WarmRecords != records {
			b.Fatalf("warm scan restored %d records", l.Stats().WarmRecords)
		}
		l.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

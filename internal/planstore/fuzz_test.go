package planstore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/plancache"
)

// FuzzPlanstoreRecord writes each input as plans.log and opens it at two
// schema versions. The startup scan must never panic and never fail on
// file content; it must cut the file to the bytes it accepted, every key
// it indexes must read back, and a second Open must restore the same keys
// and values with nothing skipped.
func FuzzPlanstoreRecord(f *testing.F) {
	valid := seedLog(f)
	f.Add(valid)
	// The last record is b's tombstone, a bare header: tear it halfway.
	f.Add(valid[:len(valid)-headerSize/2])
	// Tear c's payload ("gamma"), the record before the tombstone.
	f.Add(valid[:len(valid)-headerSize-2])
	f.Add(append(append([]byte{}, valid...), "PSL1 trailing garbage"...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, schema := range []uint32{1, 2} {
			checkScan(t, data, schema)
		}
	})
}

// seedLog returns the bytes of a schema-1 log holding a superseded key and
// a tombstone: a, b, a again, then c, which evicts b at capacity 2.
func seedLog(f *testing.F) []byte {
	dir := f.TempDir()
	l, err := Open(Options{Dir: dir, Capacity: 2, Schema: 1}, stringCodec)
	if err != nil {
		f.Fatal(err)
	}
	l.Put(key("a"), "alpha")
	l.Put(key("b"), "beta")
	l.Put(key("a"), "alpha-2")
	l.Put(key("c"), "gamma")
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, logFileName))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func checkScan(t *testing.T, data []byte, schema uint32) {
	dir := t.TempDir()
	path := filepath.Join(dir, logFileName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{Dir: dir, Schema: schema}
	l, err := Open(opts, stringCodec)
	if err != nil {
		t.Fatalf("schema %d: Open failed on file content: %v", schema, err)
	}
	st := l.Stats()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st.TotalBytes {
		t.Fatalf("schema %d: file holds %d bytes, scan accepted %d", schema, fi.Size(), st.TotalBytes)
	}
	// Collect the keys first: Get moves entries on the recency list.
	keys := make([]plancache.Key, 0, len(l.index))
	for k := range l.index {
		keys = append(keys, k)
	}
	want := make(map[plancache.Key]string, len(keys))
	for _, k := range keys {
		v, ok := l.Get(k)
		if !ok {
			t.Fatalf("schema %d: indexed key %x does not read back", schema, k[:4])
		}
		want[k] = v
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(opts, stringCodec)
	if err != nil {
		t.Fatalf("schema %d: reopen: %v", schema, err)
	}
	defer l2.Close()
	if st2 := l2.Stats(); st2.SkippedRecords != 0 || st2.Records != len(want) {
		t.Fatalf("schema %d: reopen skipped %d records and restored %d, want 0 and %d",
			schema, st2.SkippedRecords, st2.Records, len(want))
	}
	for k, v := range want {
		if got, ok := l2.Get(k); !ok || got != v {
			t.Fatalf("schema %d: after reopen %x = %q, %v; want %q", schema, k[:4], got, ok, v)
		}
	}
}

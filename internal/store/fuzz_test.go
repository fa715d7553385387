package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"viva/internal/ingest"
	"viva/internal/trace"
)

// FuzzOpen feeds arbitrary bytes through the whole read path: Open must
// either succeed or return an error — never panic — and a successfully
// opened file must survive queries and full materialization. Seeds
// include a valid file and targeted corruptions of it (truncations,
// flipped lengths, bad magic).
func FuzzOpen(f *testing.F) {
	tr := trace.New()
	tr.MustDeclareResource("g", trace.TypeGroup, "")
	tr.MustDeclareResource("h", trace.TypeHost, "g")
	tr.MustDeclareResource("l", trace.TypeLink, "g")
	tr.MustDeclareEdge("h", "l")
	rng := rand.New(rand.NewSource(1))
	now := 0.0
	for i := 0; i < 200; i++ {
		now += rng.Float64()
		if err := tr.Set(now, "h", trace.MetricUsage, rng.NormFloat64()); err != nil {
			f.Fatal(err)
		}
	}
	if err := tr.SetState(1, "h", "compute"); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, WriterOptions{ChunkPoints: 16}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-trailerSize+3])
	f.Add([]byte(Magic))
	f.Add([]byte("VVC1xxxxxxxxxxxxxxxxxxxxxxxxxxxxVVC1"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-trailerSize] ^= 0x40 // footer length
	f.Add(corrupt)
	corrupt = append([]byte(nil), valid...)
	corrupt[len(Magic)+2] ^= 0xff // chunk blob byte
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.vvc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(path)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		defer st.Close()
		// A file that opened must answer queries without panicking, even
		// if its blobs are garbage (queries degrade to 0 + Store.Err).
		for _, r := range st.Resources() {
			for _, m := range st.MetricsOf(r.Name) {
				se := st.Series(r.Name, m)
				se.At(1)
				se.Integrate(0, 2)
				se.Mean(0, 2)
				se.Max(0, 2)
				se.Min(0, 2)
				se.Len()
			}
		}
		_, _ = st.ReadAll()
	})
}

// FuzzCompactMatchesRead pins streaming compaction to the heap reader on
// native input: CompactFile succeeds exactly when trace.Read does, and
// then the store materializes to the same trace. Two-point chunks make
// chunk flushes, and equal-time overwrites at chunk edges, frequent.
func FuzzCompactMatchesRead(f *testing.F) {
	f.Add([]byte("# viva trace v1\nresource g group -\nresource h host g\nedge g h\nset 0 h power 5\nset 1 h power 6\nset 1 h power 7\nadd 2 h power 1\nstate 1 h busy\nend 3\n"))
	f.Add([]byte("resource h host -\nset 10 h usage 5\nset 4 h usage 2\nset 20 h usage 7\n"))
	f.Add([]byte("resource h host -\nset 0 h u 1\nset 1 h u 2\nset 2 h u 3\nset 2 h u 4\nadd 2 h u 1\nset 3 h u 0\n"))
	f.Add([]byte("resource h host -\nset 1 h u inf\n"))
	f.Add([]byte("set 0 ghost x 1\n"))
	f.Add([]byte("bogus\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		head := data[:min(len(data), 4096)]
		if ingest.IsPaje(head) || ingest.IsGzip(head) || IsColumnar(head) {
			t.Skip()
		}
		want, rerr := trace.Read(bytes.NewReader(data))
		dir := t.TempDir()
		src := filepath.Join(dir, "in.trace")
		dst := filepath.Join(dir, "out.vvc")
		if err := os.WriteFile(src, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cerr := CompactFile(src, dst, ingest.Options{}, WriterOptions{ChunkPoints: 2})
		if (cerr == nil) != (rerr == nil) {
			t.Fatalf("CompactFile err = %v, trace.Read err = %v", cerr, rerr)
		}
		if cerr != nil {
			return
		}
		st, err := Open(dst)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		got, err := st.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		var wb, gb bytes.Buffer
		if err := trace.Write(&wb, want); err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(&gb, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Fatalf("compacted trace differs from heap read:\n%s\nvs\n%s", gb.Bytes(), wb.Bytes())
		}
	})
}

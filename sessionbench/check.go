package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"viva/internal/core"
	"viva/internal/server"
	"viva/internal/trace"
	"viva/internal/traceio"
)

// checkDigests compares the session's response digests with those an
// earlier run of the same sources recorded for the same workload and
// seed, over the frames both completed, and keeps the longer record. Runs
// of one commit and seed must serve identical bytes.
func (b *bench) checkDigests(digests []uint64) error {
	dir := filepath.Join(outDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.bin", b.workload, b.seed, sourceDigest()))
	if old, err := os.ReadFile(path); err == nil {
		for i := 0; i < len(old)/8 && i < len(digests); i++ {
			if binary.LittleEndian.Uint64(old[8*i:]) != digests[i] {
				return fmt.Errorf("response %d differs from an earlier run with seed %d", i, b.seed)
			}
		}
		if len(old)/8 >= len(digests) {
			return nil
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	buf := make([]byte, 8*len(digests))
	for i, d := range digests {
		binary.LittleEndian.PutUint64(buf[8*i:], d)
	}
	tmp := path + fmt.Sprintf(".%d", os.Getpid())
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// checkExplore replays the session on the heap trace, through a second
// server's handler, and requires every response to equal the store-backed
// one bit for bit, as the store's invariant promises, and to be JSON.
func (b *bench) checkExplore(s *session) error {
	tr, err := traceio.Load(b.tracePath())
	if err != nil {
		return err
	}
	v, err := core.NewViewOf(tr)
	if err != nil {
		return err
	}
	v.SetParallelism(0)
	v.StabilizeMultilevel(0)
	h := server.New(v).Handler()
	i := 0
	serve := func(method, path string, body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			return fmt.Errorf("heap replay %s %s: status %d", method, path, rec.Code)
		}
		if i >= len(s.digests) || digest(rec.Body.Bytes()) != s.digests[i] {
			return fmt.Errorf("response %d (%s %s) differs between store and heap", i, method, path)
		}
		if !json.Valid(rec.Body.Bytes()) {
			return fmt.Errorf("response %d (%s %s) is not JSON", i, method, path)
		}
		i++
		return nil
	}
	if err := serve(http.MethodGet, "/api/graph?steps=5", nil); err != nil {
		return err
	}
	for _, a := range s.actions {
		postPath, postBody, get := a.requests(5)
		if postPath != "" {
			if err := serve(http.MethodPost, postPath, postBody); err != nil {
				return err
			}
		}
		if err := serve(http.MethodGet, get, nil); err != nil {
			return err
		}
	}
	return nil
}

// checkLive requires the drained live trace to serialise exactly like
// the cold one it replayed, and the subscriber to have seen the
// continuity invariant hold and the shutdown frame arrive. It returns
// the digest of the live trace, the run's only timing-free output.
func checkLive(r *rig, sse *sseClient) (uint64, error) {
	var live, cold bytes.Buffer
	if err := trace.Write(&live, r.live.Trace()); err != nil {
		return 0, err
	}
	if err := trace.Write(&cold, r.heap); err != nil {
		return 0, err
	}
	var errs []string
	if !bytes.Equal(live.Bytes(), cold.Bytes()) {
		errs = append(errs, "trace.Write(live) != trace.Write(cold)")
	}
	if sse.err != nil {
		errs = append(errs, sse.err.Error())
	}
	if !sse.shutdown {
		errs = append(errs, "subscriber saw no shutdown event")
	}
	if rep := r.live.Report(); rep.Errors > 0 {
		errs = append(errs, fmt.Sprintf("publisher rejected %d ops", rep.Errors))
	}
	d := digest(live.Bytes())
	if len(errs) > 0 {
		return d, errors.New(strings.Join(errs, "; "))
	}
	return d, nil
}

package store

import (
	"bytes"
	"compress/flate"
	"container/list"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"viva/internal/obs"
)

// Chunk-cache observability: the hit ratio tells whether the cache is
// sized for the access pattern (scrubbing revisits boundary chunks
// constantly); evictions against a low hit rate mean thrashing.
var (
	obsCacheHits = obs.Default.Counter("viva_store_chunk_cache_hits_total",
		"Chunk-cache lookups answered without touching the file.")
	obsCacheMisses = obs.Default.Counter("viva_store_chunk_cache_misses_total",
		"Chunk-cache lookups that read and decoded a chunk from disk.")
	obsCacheEvictions = obs.Default.Counter("viva_store_chunk_cache_evictions_total",
		"Chunks evicted from the bounded cache to stay under its byte budget.")
	obsCacheBytes = obs.Default.Gauge("viva_store_chunk_cache_bytes",
		"Decoded bytes currently resident in the (most recently used) store's chunk cache.")
)

// DefaultCacheBytes bounds the decoded chunks a store keeps resident:
// 4 MiB ≈ 170 chunks of DefaultChunkPoints — plenty for the boundary
// chunks of interactive scrubbing, a rounding error next to a large
// trace.
const DefaultCacheBytes = 4 << 20

// chunkData is one decoded chunk: parallel point arrays plus the
// column-absolute prefix sums. Immutable once decoded; shared by every
// reader that hits the cache.
type chunkData struct {
	times  []float64
	values []float64
	prefix []float64
}

type cacheKey struct{ col, chunk int }

type cacheEntry struct {
	key   cacheKey
	data  *chunkData
	bytes int64
}

// chunkCache is a byte-bounded LRU over decoded chunks, one per open
// store. Lookups are mutex-protected; the read+decode of a miss runs
// outside the lock (file ReadAt is pread, concurrent-safe), so parallel
// readers miss independently and the first insert wins.
type chunkCache struct {
	readAt  io.ReaderAt
	maxB    int64
	hits    atomic.Int64 // per-store mirrors of the global counters
	misses  atomic.Int64
	mu      sync.Mutex
	size    int64
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element
}

func newChunkCache(r io.ReaderAt, maxBytes int64) *chunkCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &chunkCache{
		readAt:  r,
		maxB:    maxBytes,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

// get returns the decoded chunk, from cache or disk.
func (c *chunkCache) get(col, chunk int, m *chunkMeta) (*chunkData, error) {
	key := cacheKey{col, chunk}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		obsCacheHits.Inc()
		c.hits.Add(1)
		return el.Value.(*cacheEntry).data, nil
	}
	c.mu.Unlock()
	obsCacheMisses.Inc()
	c.misses.Add(1)

	data, err := readChunk(c.readAt, m)
	if err != nil {
		return nil, err
	}
	sz := int64(m.ulen)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A racing reader inserted the same chunk; share its copy.
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, nil
	}
	if sz > c.maxB {
		// Oversized chunk: serve it without caching rather than flushing
		// the whole cache for one query.
		return data, nil
	}
	evicted, freed := int64(0), int64(0)
	for c.size+sz > c.maxB {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ev.key)
		c.size -= ev.bytes
		obsCacheEvictions.Inc()
		evicted++
		freed += ev.bytes
	}
	if evicted > 0 {
		// One flight event per insert-that-evicted, not per chunk: an
		// eviction storm then reads as a run of events with rising counts
		// instead of flooding the ring.
		obs.Flight.Record(obs.FlightStoreEvict, 0, evicted, freed)
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, data: data, bytes: sz})
	c.size += sz
	obsCacheBytes.Set(float64(c.size))
	return data, nil
}

// inflater is a reusable flate decompressor with its input reader and
// the scratch byte buffers of one chunk read. Only these scratch buffers
// are pooled: the decoded chunk is always a fresh slice, because the
// cache hands it to concurrent readers.
type inflater struct {
	src    bytes.Reader
	fr     io.ReadCloser // also a flate.Resetter
	stored []byte
	raw    []byte
	probe  [1]byte
}

var inflaters = sync.Pool{New: func() any {
	inf := &inflater{}
	inf.fr = flate.NewReader(&inf.src)
	return inf
}}

// grow returns b resized to n, reallocating only when it is too small.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// readChunk preads and decodes one chunk blob.
func readChunk(r io.ReaderAt, m *chunkMeta) (*chunkData, error) {
	inf := inflaters.Get().(*inflater)
	defer inflaters.Put(inf)
	inf.stored = grow(inf.stored, int(m.clen))
	if _, err := r.ReadAt(inf.stored, int64(m.off)); err != nil {
		return nil, fmt.Errorf("store: reading chunk at %d: %w", m.off, err)
	}
	raw := inf.stored
	if m.enc == encFlate {
		inf.src.Reset(inf.stored)
		if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
			return nil, fmt.Errorf("store: decompressing chunk at %d: %w", m.off, err)
		}
		inf.raw = grow(inf.raw, int(m.ulen))
		raw = inf.raw
		if _, err := io.ReadFull(inf.fr, raw); err != nil {
			return nil, fmt.Errorf("store: decompressing chunk at %d: %w", m.off, err)
		}
		// A corrupt stream may inflate past ulen; reject instead of
		// silently truncating.
		if n, _ := inf.fr.Read(inf.probe[:]); n != 0 {
			return nil, fmt.Errorf("store: chunk at %d inflates past its declared size", m.off)
		}
	}
	if len(raw) != int(m.ulen) {
		return nil, fmt.Errorf("store: chunk at %d has %d bytes, want %d", m.off, len(raw), m.ulen)
	}
	n := int(m.count)
	all := make([]float64, 3*n)
	for i := range all {
		all[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return &chunkData{times: all[:n], values: all[n : 2*n], prefix: all[2*n : 3*n]}, nil
}

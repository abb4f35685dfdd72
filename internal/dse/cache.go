package dse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// cacheEntry is one memoized evaluation result.
type cacheEntry struct {
	Cost float64            `json:"cost"`
	Aux  map[string]float64 `json:"aux,omitempty"`
}

// CacheStats is the hit/miss accounting of one cache since creation.
type CacheStats struct {
	Hits   int // evaluations answered from memory or disk
	Misses int // evaluations that had to run
}

// HitRate returns Hits / (Hits + Misses), 0 for an unused cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache memoizes evaluation results under content-hash keys. Structured
// entries (the sweep's cost and aux metrics): the key string
// (canonically serialized configuration, see Canonical/HashSet) is
// hashed with SHA-256 and the entry persisted as <hash>.json under the
// cache directory, so identical configurations are free across process
// runs. Opaque-bytes entries (GetBytes/PutBytes) live in one
// append-only segment file per directory (see segName). A Cache with an
// empty directory is memory-only. Safe for concurrent use; hit/miss
// accounting via Stats.
//
// The segment is indexed into memory when the Cache is opened: an
// instance sees the segment as it was at open, plus its own appends.
// One instance at a time may append to a directory's segment. Nothing
// is fsynced, so a persisted entry survives the death of the process
// but not a kernel crash or power loss.
type Cache struct {
	mu      sync.Mutex
	dir     string
	mem     map[string]cacheEntry
	memB    map[string][]byte // opaque-bytes entries (GetBytes/PutBytes)
	hits    int
	misses  int
	saveErr error // first persist failure (diagnosed, not fatal)

	seg     *os.File // the bytes segment, opened on the first append
	segEnd  int64    // end of the segment's valid prefix: the next append's offset
	segTorn bool     // bytes past segEnd may be on disk: truncate before appending

	// crash drill (SetCrashAfter)
	crashIn   int // appends until the drill fires; 0 = disarmed
	crashTorn int // bytes of the crashing record that still reach disk
}

// NewCache opens (creating if needed) a cache directory and indexes the
// longest valid prefix of its bytes segment; dir "" makes a memory-only
// cache. A torn or corrupt segment tail is not an error: its entries
// are misses, and the tail is truncated away before the first append.
func NewCache(dir string) (*Cache, error) {
	c := &Cache{dir: dir, mem: map[string]cacheEntry{}, memB: map[string][]byte{}}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dse: cache dir: %w", err)
	}
	data, err := os.ReadFile(c.segPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("dse: cache segment: %w", err)
	}
	c.segEnd = indexSegment(data, c.memB)
	c.segTorn = c.segEnd < int64(len(data))
	return c, nil
}

// Stats returns the hit/miss counts accumulated so far.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

// Err returns the first persistence failure, if any. Sweep lookups fall
// back to evaluation on read errors and keep working in memory on write
// errors, so a bad cache directory degrades to a cold cache rather than
// failing the sweep. PutBytes also returns its write errors.
func (c *Cache) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveErr
}

// path maps a key to its file: sha256(key).json under the cache dir.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// lookup returns the memoized entry for key, consulting memory first,
// then disk. Accounting: every call is a hit or a miss.
func (c *Cache) lookup(key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[key]; ok {
		c.hits++
		return e, true
	}
	if c.dir != "" {
		if data, err := os.ReadFile(c.path(key)); err == nil {
			var e cacheEntry
			if err := json.Unmarshal(data, &e); err == nil {
				c.mem[key] = e
				c.hits++
				return e, true
			}
		}
	}
	c.misses++
	return cacheEntry{}, false
}

// GetBytes looks up an opaque result payload stored under key. It reads
// memory only: the segment was indexed at open, and this instance's own
// appends are indexed as they are made. Every call is accounted as a hit
// or a miss in Stats, like the structured lookups; an entry lost to a
// torn or corrupt segment tail is a miss. The returned slice must not be
// mutated by the caller.
func (c *Cache) GetBytes(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.memB[key]; ok {
		c.hits++
		return b, true
	}
	c.misses++
	return nil, false
}

// PutBytes stores an opaque result payload under key. When the cache
// has a directory the payload is first appended to the segment as one
// checksummed record, in a single write. A write failure is returned
// (and recorded in Err), and the payload is then not kept in memory
// either: a caller that journals "stored" only after PutBytes succeeds
// can rely on every later process finding the bytes on disk.
func (c *Cache) PutBytes(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir == "" {
		c.memB[key] = append([]byte(nil), data...)
		return nil
	}
	if uint64(len(key)) > math.MaxUint32 || uint64(len(data)) > math.MaxUint32 {
		return fmt.Errorf("dse: cache persist: %d-byte key or %d-byte payload exceeds the segment's 32-bit lengths", len(key), len(data))
	}
	rec := make([]byte, 0, len(segMagic)+segHeader+len(key)+len(data)+segTrailer)
	if c.segEnd == 0 {
		rec = append(rec, segMagic...)
	}
	off := len(rec) + segHeader + len(key)
	rec = appendRecord(rec, key, data)
	if err := c.appendSeg(rec); err != nil {
		err = fmt.Errorf("dse: cache persist: %w", err)
		if c.saveErr == nil {
			c.saveErr = err
		}
		return err
	}
	c.memB[key] = rec[off : off+len(data) : off+len(data)]
	return nil
}

// ErrCrash is returned by PutBytes when the crash drill fires (see
// SetCrashAfter).
var ErrCrash = errors.New("dse: simulated crash inside a segment append")

// SetCrashAfter arms the segment's crash drill: counting from now, the
// n-th append writes only the first torn bytes of its record (0 =
// nothing) and PutBytes fails with ErrCrash. The drill fires once; like
// any failed write it leaves the segment to be repaired (truncated back
// to its valid prefix) before the next append. The campaign's
// kill-and-restart harness uses it to kill the server inside a segment
// append. n <= 0 disarms.
func (c *Cache) SetCrashAfter(n, torn int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashIn = max(n, 0)
	c.crashTorn = torn
}

// Close closes the segment file, if an append opened it. A later
// PutBytes reopens it.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seg == nil {
		return nil
	}
	err := c.seg.Close()
	c.seg = nil
	return err
}

// The bytes segment: segMagic, then one record per PutBytes,
//
//	u32 key length | u32 payload length | key | payload | u32 CRC-32
//
// little-endian, where the CRC-32 (IEEE) covers the record's preceding
// bytes. Indexing stops at the first record that is short, oversized or
// fails its checksum: the segment's valid prefix ends there, so a torn
// or corrupt entry degrades to a miss (re-evaluation) instead of serving
// wrong bytes. A key appended twice resolves to its last record.
const (
	segName    = "bytes.seg"
	segMagic   = "dseseg1\n" // bump on any framing change
	segHeader  = 8
	segTrailer = 4
)

func (c *Cache) segPath() string { return filepath.Join(c.dir, segName) }

// appendSeg writes one encoded record at the end of the valid prefix,
// opening the segment and truncating a torn tail first when needed.
// Called with c.mu held.
func (c *Cache) appendSeg(rec []byte) error {
	if c.seg == nil {
		f, err := os.OpenFile(c.segPath(), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		c.seg = f
	}
	if c.segTorn {
		if err := c.seg.Truncate(c.segEnd); err != nil {
			return err
		}
		c.segTorn = false
	}
	if c.crashIn > 0 {
		if c.crashIn--; c.crashIn == 0 {
			c.segTorn = true
			if torn := min(c.crashTorn, len(rec)); torn > 0 {
				c.seg.WriteAt(rec[:torn], c.segEnd) // best effort: the tear is the point
			}
			return ErrCrash
		}
	}
	if _, err := c.seg.WriteAt(rec, c.segEnd); err != nil {
		c.segTorn = true
		return err
	}
	c.segEnd += int64(len(rec))
	return nil
}

// appendRecord appends the segment record for (key, payload) to dst.
func appendRecord(dst []byte, key string, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, key...)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// indexSegment indexes the records of a segment image into entries and
// returns the length of its valid prefix (0 without a valid magic).
// Payloads alias data.
func indexSegment(data []byte, entries map[string][]byte) int64 {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0
	}
	off := len(segMagic)
	for {
		rest := data[off:]
		if len(rest) < segHeader+segTrailer {
			break
		}
		kl := uint64(binary.LittleEndian.Uint32(rest))
		pl := uint64(binary.LittleEndian.Uint32(rest[4:]))
		end := segHeader + kl + pl
		if end+segTrailer > uint64(len(rest)) || crc32.ChecksumIEEE(rest[:end]) != binary.LittleEndian.Uint32(rest[end:]) {
			break
		}
		entries[string(rest[segHeader:segHeader+kl])] = rest[segHeader+kl : end : end]
		off += int(end + segTrailer)
	}
	return int64(off)
}

// store memoizes a successful evaluation, persisting it when the cache
// has a directory. Write failures are recorded in Err, not propagated:
// the in-memory entry still serves the current process.
func (c *Cache) store(key string, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = e
	if c.dir == "" {
		return
	}
	data, err := json.Marshal(e)
	if err == nil {
		err = os.WriteFile(c.path(key), data, 0o644)
	}
	if err != nil && c.saveErr == nil {
		c.saveErr = fmt.Errorf("dse: cache persist: %w", err)
	}
}

// Package cache is a content-addressed, on-disk artifact store for the
// CirSTAG pipeline. Expensive intermediates — trained timing-GNN weights,
// Phase-1 spectral embeddings, sparsified manifold PGMs — are keyed by a
// canonical fingerprint of everything that determines their bytes (netlist
// content, options, seed, code-schema version) and persisted so that repeated
// and near-repeated analyses skip recomputation entirely.
//
// # Guarantees
//
//   - Content addressing: a key is the SHA-256 of a length-prefixed encoding
//     of every input that can change the artifact, always including the
//     package SchemaVersion, so stale code or changed inputs can never
//     resurrect a wrong artifact — they hash to a different key.
//   - Atomicity: Put writes to a temporary file in the destination directory
//     and renames it into place, so readers never observe a partial artifact
//     even with concurrent writers; concurrent Puts of the same key are
//     last-writer-wins with identical bytes.
//   - Integrity: every artifact carries a header (magic, schema version,
//     payload SHA-256, payload length) that Get verifies before returning.
//     Truncation, bit flips, and stale schema versions are all detected and
//     degrade to a miss — the pipeline silently recomputes.
//
// A nil *Store is valid and behaves as a disabled cache (every Get misses,
// every Put is a no-op), so call sites never branch on whether caching is on.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"cirstag/internal/faultinject"
	"cirstag/internal/obs"
)

// SchemaVersion identifies the artifact encoding and key derivation. It is
// mixed into every key and stamped into every artifact header; bump it when
// the codec or the meaning of any fingerprinted field changes, and all old
// entries become unreachable (and unreadable) rather than wrong.
//
// v2: Phase-2 sparsification ranks edges by sketched effective resistances
// above a node threshold, so cached manifold bytes for large inputs differ
// from v1 even with identical options and seed.
//
// v3: kNN distance ties break by (d², id) instead of by tree traversal order,
// so cached manifold bytes differ from v2 under identical keys.
const SchemaVersion = "cirstag.cache/v3"

// magic marks a CirSTAG artifact file; 8 bytes so headers stay aligned.
var magic = [8]byte{'C', 'S', 'T', 'G', 'A', 'R', 'T', '\n'}

// Activity counters (also surfaced structurally via the obs run report's
// "cache" section; see obs.SetCacheReporter).
var (
	hitCounter        = obs.NewCounter("cache.hits")
	missCounter       = obs.NewCounter("cache.misses")
	corruptionCounter = obs.NewCounter("cache.corruptions")
	bytesReadCounter  = obs.NewCounter("cache.bytes_read")
	bytesWriteCounter = obs.NewCounter("cache.bytes_written")
	putErrorCounter   = obs.NewCounter("cache.put_errors")
)

// Store is a content-addressed artifact store over one storage Backend (a
// local directory via Open, anything else via NewStore). All methods are
// safe for concurrent use and safe on a nil receiver (disabled cache).
type Store struct {
	backend Backend

	// Stats are tracked on the store itself (independently of whether obs
	// recording is enabled) so the run-report cache section is always exact.
	hits, misses, corruptions atomic.Int64
	bytesRead, bytesWritten   atomic.Int64
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Hits, Misses, Corruptions int64
	BytesRead, BytesWritten   int64
}

// Open creates (if needed) and opens an artifact store rooted at a local
// directory, and installs the store as the source of the obs run report's
// "cache" section. An unusable root is cirerr.ErrBadInput (see OpenDir).
func Open(dir string) (*Store, error) {
	b, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return NewStore(b), nil
}

// NewStore wraps a storage Backend in a Store and installs it as the source
// of the obs run report's "cache" section. Framing, integrity verification,
// and activity accounting are the Store's regardless of backend, so every
// backend inherits the corruption-detection and atomicity guarantees
// documented on Backend.
func NewStore(b Backend) *Store {
	s := &Store{backend: b}
	obs.SetCacheReporter(func() *obs.CacheReport {
		st := s.Snapshot()
		rep := &obs.CacheReport{
			Dir:          b.Location(),
			Hits:         st.Hits,
			Misses:       st.Misses,
			Corruptions:  st.Corruptions,
			BytesRead:    st.BytesRead,
			BytesWritten: st.BytesWritten,
		}
		if n := st.Hits + st.Misses; n > 0 {
			rep.HitRate = float64(st.Hits) / float64(n)
		}
		return rep
	})
	return s
}

// Dir returns the backend's human-readable location — the root directory for
// a local store — or "" for a disabled store.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.backend.Location()
}

// Snapshot returns the current activity counters (zero for a disabled store).
func (s *Store) Snapshot() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Corruptions:  s.corruptions.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// Get returns the payload stored under (kind, key). The boolean is false on
// a miss; corruption of any form (truncated frame, flipped bytes, stale
// schema) is detected by the header check, counted, and reported as a miss so
// callers fall back to recomputing. Corrupt entries are removed best-effort.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	raw, err := s.backend.Read(kind, key)
	if err != nil {
		s.misses.Add(1)
		missCounter.Inc()
		obs.TraceInstant("cache.miss", kind)
		return nil, false
	}
	// Fault-injection point: tests corrupt the raw frame here to prove the
	// header check catches truncation and bit flips (no-op in production).
	raw = faultinject.Bytes(faultinject.PointCacheFrame, raw)
	payload, err := decodeArtifact(raw)
	if err != nil {
		obs.Debugf("cache: %s/%s: %v (recomputing)", kind, key[:8], err)
		s.corruptions.Add(1)
		s.misses.Add(1)
		corruptionCounter.Inc()
		missCounter.Inc()
		obs.TraceInstant("cache.corrupt", kind)
		s.backend.Remove(kind, key)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(int64(len(payload)))
	hitCounter.Inc()
	bytesReadCounter.Add(int64(len(payload)))
	obs.TraceInstant("cache.hit", kind)
	return payload, true
}

// Put stores payload under (kind, key) atomically (the backend publishes the
// framed artifact with its atomicity contract — temp-file + rename for the
// local directory backend).
func (s *Store) Put(kind, key string, payload []byte) error {
	if s == nil {
		return nil
	}
	if err := s.backend.Write(kind, key, encodeArtifact(payload)); err != nil {
		putErrorCounter.Inc()
		return fmt.Errorf("cache: writing %s/%s: %w", kind, key[:8], err)
	}
	s.bytesWritten.Add(int64(len(payload)))
	bytesWriteCounter.Add(int64(len(payload)))
	obs.TraceInstant("cache.put", kind)
	return nil
}

// encodeArtifact frames a payload: magic, schema string, payload SHA-256,
// payload length, payload bytes.
func encodeArtifact(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(len(magic) + 2 + len(SchemaVersion) + len(sum) + 8 + len(payload))
	buf.Write(magic[:])
	var l16 [2]byte
	binary.LittleEndian.PutUint16(l16[:], uint16(len(SchemaVersion)))
	buf.Write(l16[:])
	buf.WriteString(SchemaVersion)
	buf.Write(sum[:])
	var l64 [8]byte
	binary.LittleEndian.PutUint64(l64[:], uint64(len(payload)))
	buf.Write(l64[:])
	buf.Write(payload)
	return buf.Bytes()
}

// decodeArtifact verifies the frame and returns the payload.
func decodeArtifact(raw []byte) ([]byte, error) {
	off := 0
	need := func(n int) error {
		if len(raw)-off < n {
			return fmt.Errorf("truncated artifact (%d bytes)", len(raw))
		}
		return nil
	}
	if err := need(len(magic) + 2); err != nil {
		return nil, err
	}
	if !bytes.Equal(raw[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("bad magic")
	}
	off = len(magic)
	slen := int(binary.LittleEndian.Uint16(raw[off:]))
	off += 2
	if err := need(slen + sha256.Size + 8); err != nil {
		return nil, err
	}
	if schema := string(raw[off : off+slen]); schema != SchemaVersion {
		return nil, fmt.Errorf("schema %q, want %q", schema, SchemaVersion)
	}
	off += slen
	var want [sha256.Size]byte
	copy(want[:], raw[off:])
	off += sha256.Size
	plen := binary.LittleEndian.Uint64(raw[off:])
	off += 8
	if uint64(len(raw)-off) != plen {
		return nil, fmt.Errorf("payload length %d, header says %d", len(raw)-off, plen)
	}
	payload := raw[off:]
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("payload hash mismatch")
	}
	return payload, nil
}

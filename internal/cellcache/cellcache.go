// Package cellcache is the content-addressed memoization store for
// individual experiment cells. A sweep runner decomposes its matrix into
// machine-independent cell specs (runner family, cell coordinates, the
// cell's SplitSeed-derived seed); each cell's result is keyed by a
// SHA-256 over the canonical spec and the code version and stored as the
// result struct's JSON encoding.
//
// The cache is sound because the simulator underneath is deterministic:
// a cell is a pure function of its spec — worker count and Progress
// hooks never change results (the golden and cold/warm byte-identity
// tests pin this), so neither appears in the key. Go's JSON encoding round-trips float64 and int64 values exactly
// (shortest-representation floats, full-precision integers), so a row
// decoded from the cache renders byte-identically to one just computed.
//
// The same store backs both the batch path (trimsim -cache) and the
// experiment service (trimsvc), whose run-level cache becomes a
// composition of cell hits on a warm store.
package cellcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Key returns the content address of one cell result: a hex SHA-256 over
// the canonical cell spec (its JSON encoding — struct order, zero values
// omitted where tagged) and the code version. Any code change rolls the
// version and so invalidates every cached cell.
func Key(spec any, codeVersion string) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// Cell specs are structs of scalars and strings; failing to
		// marshal one is a programming error, not a runtime condition.
		panic(fmt.Sprintf("cellcache: unmarshalable cell spec %T: %v", spec, err))
	}
	h := sha256.New()
	h.Write(b)
	h.Write([]byte{0})
	h.Write([]byte(codeVersion))
	return hex.EncodeToString(h.Sum(nil))
}

// CodeVersion identifies the running simulator build for cache keying:
// the VCS revision stamped into the binary (plus a dirty marker for
// modified trees), or "dev" when no build info is embedded (go test,
// unstamped `go build` / `go run` trees). "dev" results are still sound
// within one process — an in-memory store dies with it — but a
// persistent cache directory shared across differing "dev" builds would
// be unsound; see ValidatePersistent.
func CodeVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, modified string
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	if rev == "" {
		return "dev"
	}
	return rev + modified
}

// ValidatePersistent is the refusal rule both trimsim -cache and trimsvc
// -cache share: a persistent cache directory needs a stamped, clean code
// version, because two different "dev" (or dirty) builds writing the
// same key could disagree about its value. force overrides the refusal
// for users who know their tree is stable (iterating on experiment
// parameters without touching simulator code).
func ValidatePersistent(codeVersion string, force bool) error {
	if force {
		return nil
	}
	if codeVersion == "dev" {
		return fmt.Errorf("cellcache: this build has no stamped VCS revision (built from " +
			"an unpacked tree or via go run/go test), so a persistent cache directory " +
			"cannot be validated against the code that fills it; commit and rebuild, " +
			"or force with -cache-force if the tree is stable")
	}
	if strings.HasSuffix(codeVersion, "+dirty") {
		return fmt.Errorf("cellcache: this build came from a modified tree (%s) — every "+
			"dirty build at this revision shares that version string regardless of what "+
			"was modified, so a persistent cache directory cannot tell their results "+
			"apart; commit and rebuild, or force with -cache-force if the tree is stable",
			codeVersion)
	}
	return nil
}

// DefaultMemLimit bounds the in-memory tier of a store: beyond it the
// least recently used payloads are evicted (they remain on disk when the
// store is persistent). Cell payloads are small JSON rows — a few
// hundred bytes to a few hundred KB for series-bearing results — so the
// default comfortably holds every sweep in the repo.
const DefaultMemLimit = 64 << 20

// Store is a two-tier content-addressed store: an in-memory LRU over
// JSON payloads, optionally backed by a directory where every payload is
// written as it arrives (named by its key, atomically renamed into
// place, so a crash never leaves a torn result). All methods are safe
// for concurrent use — sweep cells resolve from parallel trial workers.
type Store struct {
	mu      sync.Mutex
	dir     string // "" = memory only
	memCap  int64
	memUsed int64
	lru     *list.List // front = most recently used
	mem     map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// lruEntry is one in-memory payload.
type lruEntry struct {
	key     string
	payload []byte
}

// Open returns a store persisting under dir; dir == "" keeps results in
// memory only.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, memCap: DefaultMemLimit,
		lru: list.New(), mem: map[string]*list.Element{}}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: cache dir: %w", err)
	}
	return s, nil
}

// NewMemory returns a memory-only store (a persistent store with no
// directory).
func NewMemory() *Store {
	s, _ := Open("")
	return s
}

// SetMemLimit adjusts the in-memory tier's byte budget (0 or negative
// disables in-memory retention entirely; disk-backed stores then read
// every hit from disk).
func (s *Store) SetMemLimit(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memCap = bytes
	s.evictLocked()
}

// Dir returns the persistence directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// path is the on-disk location of one cell payload.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".cell")
}

// Get returns the payload cached under key, if any, and counts the
// lookup as a hit or a miss. Callers must not mutate the returned slice.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		payload := el.Value.(*lruEntry).payload
		s.mu.Unlock()
		s.hits.Add(1)
		return payload, true
	}
	s.mu.Unlock()
	if s.dir != "" {
		if payload, err := os.ReadFile(s.path(key)); err == nil {
			s.mu.Lock()
			s.insertLocked(key, payload)
			s.mu.Unlock()
			s.hits.Add(1)
			return payload, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores a payload under key: into the memory tier, and — for
// persistent stores — onto disk immediately (a temp file of its own
// renamed into place, so concurrent readers never observe a torn write
// and concurrent stores of one key never share a temp file).
func (s *Store) Put(key string, payload []byte) error {
	s.mu.Lock()
	s.insertLocked(key, payload)
	s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	if err := s.writeFile(key, payload); err != nil {
		return fmt.Errorf("cellcache: write: %w", err)
	}
	return nil
}

// writeFile writes one payload file through a unique temp file in the
// store directory and renames it into place.
func (s *Store) writeFile(key string, payload []byte) error {
	f, err := os.CreateTemp(s.dir, key+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(payload)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, s.path(key))
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort; the write error is what matters
	}
	return err
}

// insertLocked adds or refreshes a memory-tier entry and evicts down to
// the budget. Caller holds s.mu.
func (s *Store) insertLocked(key string, payload []byte) {
	if el, ok := s.mem[key]; ok {
		e := el.Value.(*lruEntry)
		s.memUsed += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		s.lru.MoveToFront(el)
	} else {
		s.mem[key] = s.lru.PushFront(&lruEntry{key: key, payload: payload})
		s.memUsed += int64(len(payload))
	}
	s.evictLocked()
}

// evictLocked drops least recently used entries until the memory tier
// fits its budget. Caller holds s.mu.
func (s *Store) evictLocked() {
	for s.memUsed > s.memCap {
		el := s.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*lruEntry)
		s.lru.Remove(el)
		delete(s.mem, e.key)
		s.memUsed -= int64(len(e.payload))
	}
}

// Len reports how many payloads the memory tier currently holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Hits returns how many Gets found a payload. On a warm sweep re-run
// this equals the number of cells reassembled from cache.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns how many Gets came up empty. On a warm sweep re-run
// this equals the number of cells that actually simulated — the
// only-changed-cells assertions in the tests and /v1/stats both read it.
func (s *Store) Misses() int64 { return s.misses.Load() }

// ResetStats zeroes the hit/miss counters (payloads are kept).
func (s *Store) ResetStats() {
	s.hits.Store(0)
	s.misses.Store(0)
}

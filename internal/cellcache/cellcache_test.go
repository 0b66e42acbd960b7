package cellcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestKeyDeterministicAndSensitive(t *testing.T) {
	type spec struct {
		Family      string `json:"family"`
		Concurrency int    `json:"concurrency"`
		Seed        int64  `json:"seed"`
	}
	base := Key(spec{"aqmsweep", 10, 1}, "v1")
	if again := Key(spec{"aqmsweep", 10, 1}, "v1"); again != base {
		t.Fatalf("same spec hashed twice: %s vs %s", base, again)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a hex sha256", base)
	}
	for name, other := range map[string]string{
		"family":       Key(spec{"recoverysweep", 10, 1}, "v1"),
		"concurrency":  Key(spec{"aqmsweep", 40, 1}, "v1"),
		"seed":         Key(spec{"aqmsweep", 10, 2}, "v1"),
		"code version": Key(spec{"aqmsweep", 10, 1}, "v2"),
	} {
		if other == base {
			t.Errorf("changing the %s did not change the key", name)
		}
	}
}

func TestKeyPanicsOnUnmarshalableSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Key accepted a spec json.Marshal cannot encode")
		}
	}()
	Key(map[string]any{"f": func() {}}, "v1")
}

func TestStoreMemoryTier(t *testing.T) {
	s := NewMemory()
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store returned a payload")
	}
	if s.Misses() != 1 {
		t.Fatalf("misses = %d after one empty Get, want 1", s.Misses())
	}
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get after Put = %q, %v", got, ok)
	}
	if s.Hits() != 1 || s.Len() != 1 {
		t.Fatalf("hits=%d len=%d, want 1, 1", s.Hits(), s.Len())
	}
	s.ResetStats()
	if s.Hits() != 0 || s.Misses() != 0 {
		t.Fatal("ResetStats left counters nonzero")
	}
}

func TestStoreDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef", []byte("row")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.cell")); err != nil {
		t.Fatalf("payload not on disk: %v", err)
	}
	// A fresh store over the same directory (new process) must serve the
	// payload from disk and count it as a hit.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("deadbeef")
	if !ok || string(got) != "row" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if s2.Hits() != 1 {
		t.Fatalf("reopened hits = %d, want 1", s2.Hits())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewMemory()
	s.SetMemLimit(10)
	if err := s.Put("a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is the LRU victim when c overflows the budget.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if err := s.Put("c", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU entry b survived past the memory budget")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}

	// A disk-backed store refills evicted entries from disk.
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.SetMemLimit(4)
	if err := d.Put("x", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("oversized payload retained in memory (len=%d)", d.Len())
	}
	if got, ok := d.Get("x"); !ok || string(got) != "12345" {
		t.Fatalf("disk refill Get = %q, %v", got, ok)
	}
}

func TestValidatePersistent(t *testing.T) {
	if err := ValidatePersistent("dev", false); err == nil {
		t.Fatal("dev build accepted for a persistent cache without force")
	} else if !strings.Contains(err.Error(), "-cache-force") {
		t.Fatalf("refusal does not name the override flag: %v", err)
	}
	if err := ValidatePersistent("dev", true); err != nil {
		t.Fatalf("forced dev build refused: %v", err)
	}
	if err := ValidatePersistent("abc123+dirty", false); err == nil {
		t.Fatal("dirty-tree build accepted for a persistent cache without force")
	} else if !strings.Contains(err.Error(), "-cache-force") {
		t.Fatalf("dirty refusal does not name the override flag: %v", err)
	}
	if err := ValidatePersistent("abc123+dirty", true); err != nil {
		t.Fatalf("forced dirty build refused: %v", err)
	}
	if err := ValidatePersistent("abc123", false); err != nil {
		t.Fatalf("stamped build refused: %v", err)
	}
}

func TestCodeVersionNonEmpty(t *testing.T) {
	// Under `go test` there is no vcs stamp, so this exercises the "dev"
	// fallback; the contract is only that the version is never empty.
	if CodeVersion() == "" {
		t.Fatal("CodeVersion() returned an empty string")
	}
}

// TestStoreConcurrentDiskPutsOneKey: parallel workers that computed the
// same cell store it at once. Every store must succeed, the payload must
// land intact, and no temp file may be left behind.
func TestStoreConcurrentDiskPutsOneKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("cell-row "), 4096)
	const workers, rounds = 8, 25
	start := make(chan struct{})
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				if err := s.Put("cafe", payload); err != nil {
					errs <- err
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "cafe.cell"))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload on disk: %d bytes, err %v; want %d bytes", len(got), err, len(payload))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "cafe.cell" {
			t.Errorf("leftover file %q", e.Name())
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "cafe.cell"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("payload file mode %v, want 0644", fi.Mode().Perm())
	}
}

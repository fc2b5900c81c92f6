package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"raxml/internal/core"
	"raxml/internal/msa"
	"raxml/internal/tree"
)

// HashBytes returns the content address of a blob: hex sha256.
func HashBytes(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// BlobStore is the content-addressed artifact store: every input
// alignment, partition file, and result artifact lives under
// <dir>/blobs/<sha256> exactly once, so identical submissions and
// identical outputs share storage, and the persisted queue can
// reference inputs by hash across server restarts.
type BlobStore struct {
	dir string
	mu  sync.Mutex
}

// NewBlobStore opens (creating if needed) a store rooted at dir.
func NewBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &BlobStore{dir: dir}, nil
}

func (s *BlobStore) path(hash string) string { return filepath.Join(s.dir, hash) }

// Put stores every blob of data durably, in one batch, and returns
// their content addresses in order. Idempotent: a blob already present
// is not rewritten.
func (s *BlobStore) Put(data ...[]byte) ([]string, error) {
	hashes := make([]string, len(data))
	files := make(map[string][]byte, len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, d := range data {
		hashes[i] = HashBytes(d)
		if _, err := os.Stat(s.path(hashes[i])); err != nil {
			files[hashes[i]] = d
		}
	}
	if len(files) == 0 {
		return hashes, nil
	}
	if err := writeDurable(s.dir, files); err != nil {
		return nil, err
	}
	return hashes, nil
}

// Get returns the blob at hash.
func (s *BlobStore) Get(hash string) ([]byte, error) {
	if hash == "" {
		return nil, nil
	}
	return os.ReadFile(s.path(hash))
}

// Has reports whether the blob exists.
func (s *BlobStore) Has(hash string) bool {
	_, err := os.Stat(s.path(hash))
	return err == nil
}

// CacheStats is one namespace's hit/miss record.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// WarmCache is the in-memory warm cache keyed by alignment content:
// expensive cold-setup products (namespace "patterns": pattern
// compression output; namespace "starttree": parsimony stepwise-
// addition trees) survive across runs, so a repeat submission of an
// already-seen alignment skips straight to the search. Namespaces keep
// independent hit/miss counters (exported at /debug/vars).
type WarmCache struct {
	mu sync.Mutex
	ns map[string]*nsCache
}

type nsCache struct {
	entries map[string]any
	stats   CacheStats
}

// NewWarmCache creates an empty cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{ns: make(map[string]*nsCache)}
}

func (c *WarmCache) space(ns string) *nsCache {
	n := c.ns[ns]
	if n == nil {
		n = &nsCache{entries: make(map[string]any)}
		c.ns[ns] = n
	}
	return n
}

// Get looks key up in namespace ns, counting the hit or miss.
func (c *WarmCache) Get(ns, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.space(ns)
	v, ok := n.entries[key]
	if ok {
		n.stats.Hits++
	} else {
		n.stats.Misses++
	}
	return v, ok
}

// Put inserts key in namespace ns.
func (c *WarmCache) Put(ns, key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.space(ns).entries[key] = v
}

// Stats snapshots every namespace's counters.
func (c *WarmCache) Stats() map[string]CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]CacheStats, len(c.ns))
	for name, n := range c.ns {
		st := n.stats
		st.Entries = len(n.entries)
		out[name] = st
	}
	return out
}

// Hits returns one namespace's hit count (test/e2e assertions).
func (c *WarmCache) Hits(ns string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.space(ns).stats.Hits
}

// cache namespaces
const (
	nsPatterns  = "patterns"
	nsStartTree = "starttree"
)

// patternsFor returns the compressed alignment for the given input
// blobs, via the warm cache: the pattern-compression pass (and the
// partition parse) runs only on the first sight of an alignment. The
// returned *msa.Patterns is shared read-only across concurrent runs —
// the grid already treats it as immutable.
func (s *Server) patternsFor(alignHash, partHash string) (*msa.Patterns, error) {
	key := alignHash + "/" + partHash
	if v, ok := s.cache.Get(nsPatterns, key); ok {
		return v.(*msa.Patterns), nil
	}
	align, err := s.blobs.Get(alignHash)
	if err != nil {
		return nil, fmt.Errorf("alignment blob: %w", err)
	}
	a, err := msa.Sniff(align)
	if err != nil {
		return nil, err
	}
	var pat *msa.Patterns
	if partHash != "" {
		part, err := s.blobs.Get(partHash)
		if err != nil {
			return nil, fmt.Errorf("partition blob: %w", err)
		}
		defs, err := msa.ParsePartitionFile(bytes.NewReader(part))
		if err != nil {
			return nil, err
		}
		pat, err = msa.CompressPartitioned(a, defs)
		if err != nil {
			return nil, err
		}
	} else {
		pat, err = msa.Compress(a)
		if err != nil {
			return nil, err
		}
	}
	s.cache.Put(nsPatterns, key, pat)
	return pat, nil
}

// startTrees adapts the warm cache to core.StartTreeCache. Both sides
// clone: searches mutate their start tree in place, so the cached tree
// must stay pristine.
type startTrees struct{ c *WarmCache }

func (st startTrees) GetStartTree(key string) (*tree.Tree, bool) {
	v, ok := st.c.Get(nsStartTree, key)
	if !ok {
		return nil, false
	}
	return v.(*tree.Tree).Clone(), true
}

func (st startTrees) PutStartTree(key string, t *tree.Tree) {
	st.c.Put(nsStartTree, key, t.Clone())
}

var _ core.StartTreeCache = startTrees{}

// Fixture: the freeze-then-read pattern for a snapshot of a locked cache.
// A guarded mutable store is snapshotted once, under the proper
// locks, into an immutable flat struct that readers then use lock-free. The
// analyzer must bless the disciplined freeze and the post-freeze reads (the
// snapshot has no guarded fields), and flag a freeze that walks the guarded
// store without holding its lock.
package fixture

import "sync"

type liveStore struct {
	mu sync.RWMutex
	//lint:guardedby mu
	entries map[string][]float64
	keys    []string //lint:guardedby mu
}

// frozenStore is the read-only snapshot: plain fields, no mutex, no
// guardedby annotations. Lock-free reads of it are not lock violations.
type frozenStore struct {
	keys    []string
	samples [][]float64
}

// freeze is the blessed shape: the one-time snapshot walk holds the read
// lock for the entire copy, and nothing retains the guarded containers.
func (s *liveStore) freeze() *frozenStore {
	f := &frozenStore{}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, k := range s.keys { // want:none
		f.keys = append(f.keys, k)
		f.samples = append(f.samples, s.entries[k]) // want:none
	}
	return f
}

// racyFreeze snapshots without any lock: exactly the torn-read freeze the
// discipline exists to prevent.
func (s *liveStore) racyFreeze() *frozenStore {
	f := &frozenStore{}
	for _, k := range s.keys { // want `read of keys`
		f.keys = append(f.keys, k)
		f.samples = append(f.samples, s.entries[k]) // want `read of entries`
	}
	return f
}

// lookup is the post-freeze hot path: pure reads of the unguarded snapshot,
// safe for any number of concurrent readers, and silent under the analyzer.
func (f *frozenStore) lookup(key string) []float64 {
	for i, k := range f.keys { // want:none
		if k == key {
			return f.samples[i] // want:none
		}
	}
	return nil
}

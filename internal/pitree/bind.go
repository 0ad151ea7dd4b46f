package pitree

import (
	"fmt"
	"sync"

	"repro/internal/storage"
)

// Bindings connects a tree kind's registered log-record handlers to the
// live trees of an engine by store ID, so a logical undo can re-traverse
// the tree its record names. The zero value is ready for use.
type Bindings[T any] struct {
	mu    sync.RWMutex
	trees map[uint32]T
}

// Bind registers t as the tree of store storeID.
func (b *Bindings[T]) Bind(storeID uint32, t T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.trees == nil {
		b.trees = make(map[uint32]T)
	}
	b.trees[storeID] = t
}

// Tree returns the tree bound to store storeID.
func (b *Bindings[T]) Tree(storeID uint32) (T, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.trees[storeID]
	if !ok {
		return t, fmt.Errorf("pitree: no tree bound for store %d", storeID)
	}
	return t, nil
}

// NodeOf returns the node frame f holds, or an error (prefixed by name)
// saying what it holds instead.
func NodeOf[N any](f *storage.Frame, name string) (N, error) {
	n, ok := f.Data.(N)
	if !ok {
		return n, fmt.Errorf("%s: page %d holds %T, not a node", name, f.ID, f.Data)
	}
	return n, nil
}

package core

import (
	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/storage"
)

// taskKey identifies a pending completion for duplicate folding. It is a
// comparable value — scheduling a task from the hot path allocates no
// strings. Post tasks carry the separator as an FNV-1a fingerprint; a
// collision folds two distinct posts, which lazy completion repairs the
// next time a traversal crosses the unposted sibling (§5.1: every
// completing action re-tests the tree state anyway).
type taskKey struct {
	kind  uint8
	level int
	pid   storage.PageID
	sep   uint64
}

const (
	taskPost uint8 = iota + 1
	taskConsolidate
	taskRootShrink
)

// fingerprint is FNV-1a over a key, for taskKey dedup.
func fingerprint(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// postTask asks for the index term describing a split to be posted at
// `level` (§5.3's LEVEL): sep is the new node's low key (the KEY searched
// for), newPid its address, and path the remembered traversal (§5.2).
type postTask struct {
	level  int
	sep    keys.Key
	newPid storage.PageID
	path   *Path
}

func (t postTask) key() taskKey {
	return taskKey{kind: taskPost, level: t.level, pid: t.newPid, sep: fingerprint(t.sep)}
}

// consolidateTask asks for an attempt to consolidate the under-utilized
// node pid (whose responsible space starts at low) at `level`.
type consolidateTask struct {
	level int
	low   keys.Key
	pid   storage.PageID
}

func (t consolidateTask) key() taskKey {
	return taskKey{kind: taskConsolidate, level: t.level, pid: t.pid}
}

// rootShrinkTask asks for a height-reduction attempt.
type rootShrinkTask struct{}

func (rootShrinkTask) key() taskKey { return taskKey{kind: taskRootShrink} }

type completionTask interface{ key() taskKey }

// completer is the tree's completion queue: posting tasks run unpaced,
// consolidations and root shrinks as governor-paced maintenance (merges
// must never convoy foreground mutators).
type completer = pitree.Queue[taskKey, completionTask]

func newCompleter(t *Tree) *completer {
	return pitree.NewQueue[taskKey](pitree.QueueOptions{
		Workers:  t.opts.CompletionWorkers,
		Inline:   t.opts.SyncCompletion,
		Off:      t.opts.NoCompletion,
		Governor: t.opts.Governor,
	}, t.run)
}

// run dispatches one completing task.
func (t *Tree) run(task completionTask) {
	switch task := task.(type) {
	case postTask:
		t.postIndexTerm(task)
	case consolidateTask:
		t.consolidate(task)
	case rootShrinkTask:
		t.shrinkRoot()
	}
}

func (t *Tree) schedulePost(task postTask) {
	if task.path == nil {
		task.path = pitree.NewPath()
	}
	t.Stats.PostsScheduled.Add(1)
	t.comp.Schedule(task.key(), task, false)
}

func (t *Tree) scheduleConsolidate(task consolidateTask) {
	t.comp.Schedule(task.key(), task, true)
}

func (t *Tree) scheduleRootShrink() {
	t.comp.Schedule(rootShrinkTask{}.key(), rootShrinkTask{}, true)
}

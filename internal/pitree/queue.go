package pitree

import (
	"sync"
	"sync/atomic"

	"repro/internal/maint"
)

// QueueOptions configure a completion queue.
type QueueOptions struct {
	// Workers is the background worker count (ignored when Inline).
	Workers int
	// Inline runs tasks on the goroutine that calls Drain instead of on
	// background workers. Deterministic tests use it.
	Inline bool
	// Off discards every scheduled task.
	Off bool
	// Governor paces the tasks scheduled as maintenance; nil admits at
	// once.
	Governor *maint.Governor
}

// Queue schedules and executes completing atomic actions (§5.1): index
// term postings, and each tree's maintenance (consolidation, version
// garbage collection, page reclamation). Scheduling is non-blocking and
// safe under latches. A task is identified by a comparable key; a task
// scheduled while another with its key is still queued folds into it.
// Folded or not, duplicates are harmless: every completing action
// re-tests the tree state before changing anything.
type Queue[K comparable, T any] struct {
	run  func(T)
	opts QueueOptions

	mu      sync.Mutex
	cond    sync.Cond
	tasks   []queued[K, T]
	queued  map[K]struct{}
	running map[K]int
	active  int
	stopped bool
	wg      sync.WaitGroup
	// draining suspends governor pacing so shutdown drains at full speed.
	draining atomic.Bool
}

type queued[K comparable, T any] struct {
	key   K
	task  T
	paced bool
}

// NewQueue returns a queue that executes tasks with run, starting its
// background workers.
func NewQueue[K comparable, T any](opts QueueOptions, run func(T)) *Queue[K, T] {
	q := &Queue[K, T]{run: run, opts: opts, queued: make(map[K]struct{}), running: make(map[K]int)}
	q.cond.L = &q.mu
	if !opts.Inline {
		for i := 0; i < opts.Workers; i++ {
			q.wg.Add(1)
			go q.worker()
		}
	}
	return q
}

// Schedule queues task under key k unless a task with that key is still
// queued (not yet running), or the queue is off or stopped. paced marks
// maintenance the governor admits; posting tasks run unpaced, since
// foreground operations are already navigating around the structure they
// complete. It reports whether the task was queued.
func (q *Queue[K, T]) Schedule(k K, task T, paced bool) bool {
	if q.opts.Off {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return false
	}
	if _, dup := q.queued[k]; dup {
		return false
	}
	q.queued[k] = struct{}{}
	q.tasks = append(q.tasks, queued[K, T]{key: k, task: task, paced: paced})
	q.cond.Broadcast()
	return true
}

// Refs reports whether a task with key k is queued or running. A page
// reaper consults it before freeing a page a pending or running task may
// still latch.
func (q *Queue[K, T]) Refs(k K) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.queued[k]
	return ok || q.running[k] > 0
}

// depth reports the number of queued (not yet running) tasks.
func (q *Queue[K, T]) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// pop removes the next task and marks it running; ok is false when none
// is queued (and, with block, only once the queue is stopped).
func (q *Queue[K, T]) pop(block bool) (e queued[K, T], ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 {
		if !block || q.stopped {
			return e, false
		}
		q.cond.Wait()
	}
	e = q.tasks[0]
	q.tasks[0] = queued[K, T]{}
	q.tasks = q.tasks[1:]
	delete(q.queued, e.key)
	q.running[e.key]++
	q.active++
	return e, true
}

// exec runs one popped task and retires it.
func (q *Queue[K, T]) exec(e queued[K, T]) {
	q.run(e.task)
	q.mu.Lock()
	if q.running[e.key]--; q.running[e.key] == 0 {
		delete(q.running, e.key)
	}
	q.active--
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *Queue[K, T]) worker() {
	defer q.wg.Done()
	for {
		e, ok := q.pop(true)
		if !ok {
			return
		}
		if e.paced && !q.draining.Load() {
			q.opts.Governor.Admit(q.depth())
		}
		q.exec(e)
	}
}

// Drain returns once every scheduled task, including those scheduled by
// running tasks, has run. An inline queue runs them on the caller;
// otherwise Drain waits for the workers to go idle with nothing queued.
func (q *Queue[K, T]) Drain() {
	if q.opts.Inline {
		for {
			e, ok := q.pop(false)
			if !ok {
				break
			}
			q.exec(e)
		}
	}
	q.mu.Lock()
	for len(q.tasks) > 0 || q.active > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// stop discards every queued task, refuses new ones, and waits for the
// workers to finish the tasks they are running.
func (q *Queue[K, T]) stop() {
	q.mu.Lock()
	q.stopped = true
	for _, e := range q.tasks {
		delete(q.queued, e.key)
	}
	q.tasks = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// CloseDrain is the orderly shutdown: run every pending task at full
// speed (nothing scheduled is discarded, so a close-then-reopen never
// finds a structure change that was scheduled but silently dropped), then
// stop the workers.
func (q *Queue[K, T]) CloseDrain() {
	q.draining.Store(true)
	q.Drain()
	q.stop()
}

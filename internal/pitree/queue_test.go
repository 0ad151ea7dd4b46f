package pitree

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueueFoldsQueuedDuplicates: a task scheduled while one with its key
// is still queued folds into it; once that task has run, the key may be
// scheduled again.
func TestQueueFoldsQueuedDuplicates(t *testing.T) {
	var ran []int
	q := NewQueue[int](QueueOptions{Inline: true}, func(v int) { ran = append(ran, v) })
	if !q.Schedule(1, 10, false) {
		t.Fatal("first schedule refused")
	}
	if q.Schedule(1, 11, false) {
		t.Fatal("duplicate of a queued task was queued")
	}
	if !q.Schedule(2, 20, false) {
		t.Fatal("distinct key refused")
	}
	if d := q.depth(); d != 2 {
		t.Fatalf("depth %d, want 2", d)
	}
	q.Drain()
	if len(ran) != 2 || ran[0] != 10 || ran[1] != 20 {
		t.Fatalf("ran %v, want [10 20]", ran)
	}
	if !q.Schedule(1, 12, false) {
		t.Fatal("key not schedulable again after its task ran")
	}
}

// TestQueueRefsSeesRunningTask: Refs answers from queued and running
// tasks, so a page reaper never frees a page a running task may latch,
// and a task for the key can be queued again while one runs.
func TestQueueRefsSeesRunningTask(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	q := NewQueue[int](QueueOptions{Workers: 1}, func(v int) {
		if v == 1 {
			close(started)
			<-release
		}
	})
	defer q.stop()
	defer unblock() // a failed check must not leave stop waiting on the task
	if q.Refs(7) {
		t.Fatal("Refs reports an unscheduled key")
	}
	q.Schedule(7, 1, false)
	<-started
	if !q.Refs(7) {
		t.Fatal("Refs misses a running task")
	}
	if q.depth() != 0 {
		t.Fatal("running task still counted as queued")
	}
	if !q.Schedule(7, 2, false) {
		t.Fatal("key refused while only running, not queued")
	}
	unblock()
	q.Drain()
	if q.Refs(7) {
		t.Fatal("Refs reports a key whose tasks all finished")
	}
}

// TestQueueCloseDrainRunsEverything: CloseDrain runs every queued task,
// including tasks scheduled by running tasks, before it stops the
// workers; it does so at full speed even when tasks are paced.
func TestQueueCloseDrainRunsEverything(t *testing.T) {
	var ran atomic.Int64
	var q *Queue[int, int]
	q = NewQueue[int](QueueOptions{Workers: 2}, func(v int) {
		ran.Add(1)
		if v < 50 {
			q.Schedule(v+100, v+100, true) // a follow-up task
		}
	})
	for i := 0; i < 50; i++ {
		q.Schedule(i, i, i%2 == 0)
	}
	q.CloseDrain()
	if n := ran.Load(); n != 100 {
		t.Fatalf("ran %d tasks, want 100", n)
	}
	if q.Schedule(1000, 1000, false) {
		t.Fatal("closed queue accepted a task")
	}
}

// TestQueueStopDiscards: stop discards queued tasks, and nothing runs
// after it returns.
func TestQueueStopDiscards(t *testing.T) {
	var mu sync.Mutex
	var ran []int
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // a failed check must not leave stop waiting on the task
	q := NewQueue[int](QueueOptions{Workers: 1}, func(v int) {
		if v == 0 {
			close(started)
			<-release
		}
		mu.Lock()
		ran = append(ran, v)
		mu.Unlock()
	})
	q.Schedule(0, 0, false)
	<-started
	for i := 1; i <= 5; i++ {
		q.Schedule(i, i, false)
	}
	stopped := make(chan struct{})
	go func() {
		q.stop()
		close(stopped)
	}()
	// stop waits for the running task; let it finish once the queue has
	// been emptied.
	deadline := time.Now().Add(5 * time.Second)
	for q.depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("Stop did not discard the queue")
		}
		time.Sleep(time.Millisecond)
	}
	unblock()
	<-stopped
	if q.Refs(3) {
		t.Fatal("a discarded task is still reported")
	}
	q.Schedule(9, 9, false)
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("ran %v after Stop, want only the task running at Stop", ran)
	}
}

// TestQueueInlineDrain: with Inline set no worker runs anything; Drain
// runs the queued tasks on its caller, follow-ups included.
func TestQueueInlineDrain(t *testing.T) {
	var ran []int
	var q *Queue[int, int]
	q = NewQueue[int](QueueOptions{Inline: true, Workers: 4}, func(v int) {
		ran = append(ran, v)
		if v == 1 {
			q.Schedule(2, 2, false)
		}
	})
	q.Schedule(1, 1, false)
	time.Sleep(5 * time.Millisecond)
	if len(ran) != 0 {
		t.Fatalf("inline queue ran %v before Drain", ran)
	}
	q.Drain()
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("ran %v, want [1 2]", ran)
	}
	// Off discards every task.
	off := NewQueue[int](QueueOptions{Inline: true, Off: true}, func(int) { t.Error("off queue ran a task") })
	if off.Schedule(1, 1, false) {
		t.Fatal("off queue accepted a task")
	}
	off.Drain()
}

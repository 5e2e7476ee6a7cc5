package dataspaces

import (
	"errors"
	"testing"
)

// The single-tenant dequeue is deficit round robin over one queue. It
// differs from a plain FCFS list only on requeue: requeued tasks are
// served FIFO from the head lane, and they do not count against the
// queue bound.

// take pops the next task and checks its step.
func take(t *testing.T, s *Service, step int) Task {
	t.Helper()
	task, err := s.BucketReady()
	if err != nil {
		t.Fatal(err)
	}
	if task.Step != step {
		t.Fatalf("dequeued step %d, want %d", task.Step, step)
	}
	return task
}

// TestSingleTenantFIFO: one tenant's tasks leave in submission order
// while submissions and dequeues interleave, including across a turn
// where the queue drains empty and the ring restarts.
func TestSingleTenantFIFO(t *testing.T) {
	s := newService(t, 1)
	submit := func(steps ...int) {
		for _, step := range steps {
			if _, err := s.SubmitTask("a", step, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(1, 2)
	take(t, s, 1)
	submit(3)
	take(t, s, 2)
	take(t, s, 3)
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after draining, want 0", s.QueueDepth())
	}
	submit(4, 5, 6)
	for step := 4; step <= 6; step++ {
		take(t, s, step)
	}
}

// TestSingleTenantRequeuesServedInOrder: two requeues are served in
// the order they were requeued, both ahead of younger queued work.
func TestSingleTenantRequeuesServedInOrder(t *testing.T) {
	s := newService(t, 1)
	for step := 1; step <= 3; step++ {
		if _, err := s.SubmitTask("a", step, nil); err != nil {
			t.Fatal(err)
		}
	}
	first := take(t, s, 1)
	second := take(t, s, 2)
	if err := s.Requeue(first); err != nil {
		t.Fatal(err)
	}
	if err := s.Requeue(second); err != nil {
		t.Fatal(err)
	}
	if got := take(t, s, 1); got.Attempts != 1 {
		t.Fatalf("requeued task attempts %d, want 1", got.Attempts)
	}
	take(t, s, 2)
	take(t, s, 3)
}

// TestSingleTenantRequeueExemptFromBound: a full queue bound still
// accepts a requeue, and a pending requeue does not count against the
// next submission.
func TestSingleTenantRequeueExemptFromBound(t *testing.T) {
	s := newService(t, 1)
	s.SetQueueBound(1)
	if _, err := s.SubmitTask("a", 1, nil); err != nil {
		t.Fatal(err)
	}
	first := take(t, s, 1)
	if _, err := s.SubmitTask("a", 2, nil); err != nil {
		t.Fatal(err)
	}
	// The bound is reached: the requeue is accepted anyway.
	if err := s.Requeue(first); err != nil {
		t.Fatalf("requeue on a full bound: %v", err)
	}
	if s.QueueDepth() != 2 {
		t.Fatalf("queue depth %d, want 2", s.QueueDepth())
	}
	take(t, s, 1)
	take(t, s, 2)

	if _, err := s.SubmitTask("a", 3, nil); err != nil {
		t.Fatal(err)
	}
	third := take(t, s, 3)
	if err := s.Requeue(third); err != nil {
		t.Fatal(err)
	}
	// The pending requeue leaves the bound's one slot free.
	if _, err := s.SubmitTask("a", 4, nil); err != nil {
		t.Fatalf("submit with only a requeue pending: %v", err)
	}
	if _, err := s.SubmitTask("a", 5, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past the bound: err %v, want ErrQueueFull", err)
	}
	take(t, s, 3)
	take(t, s, 4)
}

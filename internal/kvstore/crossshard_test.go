package kvstore

import (
	"errors"
	"testing"

	"speccat/internal/locking"
	"speccat/internal/stable"
)

// shardedKeys returns one key per shard of a 2-way split, ascending by
// shard index, scanning a deterministic namespace.
func shardedKeys(t *testing.T) (k0, k1 string) {
	t.Helper()
	keys := [2]string{}
	for _, cand := range []string{"a", "b", "c", "d", "e", "f"} {
		keys[ShardOf(cand, 2)] = cand
	}
	if keys[0] == "" || keys[1] == "" {
		t.Fatal("no key pair hashing to distinct shards")
	}
	return keys[0], keys[1]
}

// TestCrossShardDeadlockBlindSpot pins the runtime gap that motivates the
// static lock-order rule (speccatlint -only lock): each shard's
// locking.Manager runs wouldDeadlock over its OWN waits-for graph only, so
// two transactions acquiring two shards' locks in opposite orders close a
// cycle neither manager can see. Both requests queue as ordinary conflicts
// — ErrConflict semantics from the store, zero deadlock convictions at
// either manager — and under a wait-for-grant execution policy the pair
// would stall forever. The single-manager control below shows the same
// access pattern IS convicted when both keys share one waits-for graph;
// lockcheck's lock-order rule is what closes the cross-manager gap, by
// rejecting acquisition orders that can form such cycles at all.
func TestCrossShardDeadlockBlindSpot(t *testing.T) {
	st := stable.NewStore()
	s, err := OpenShards(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := shardedKeys(t)

	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Begin("t2"))
	// t1 takes shard 0's lock, t2 shard 1's.
	mustOK(t, s.Put("t1", k0, "x"))
	mustOK(t, s.Put("t2", k1, "y"))
	// Now each requests the other's lock: a waits-for cycle split across
	// the two managers. Both surface as plain conflicts...
	if err := s.Put("t1", k1, "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("t1 cross acquire: err = %v, want ErrConflict", err)
	}
	if err := s.Put("t2", k0, "y"); !errors.Is(err, ErrConflict) {
		t.Fatalf("t2 cross acquire: err = %v, want ErrConflict", err)
	}
	// ...and neither shard's detector convicted anything: the cycle is
	// invisible because each manager sees one holder and one waiter.
	for i := 0; i < 2; i++ {
		if _, _, deadlocks := s.Shard(i).locks.Stats(); deadlocks != 0 {
			t.Fatalf("shard %d reported %d deadlocks; the blind spot should report none", i, deadlocks)
		}
	}
	// Both requests are still queued — the permanent stall in waiting form.
	if q := s.Shard(ShardOf(k1, 2)).locks.QueueLen(k1); q != 1 {
		t.Fatalf("queue on %s = %d, want 1", k1, q)
	}
	if q := s.Shard(ShardOf(k0, 2)).locks.QueueLen(k0); q != 1 {
		t.Fatalf("queue on %s = %d, want 1", k0, q)
	}

	// Control: the identical interleaving against one unsharded store puts
	// both keys in one waits-for graph, and the second cross-acquisition is
	// convicted as a deadlock, not a conflict.
	u, err := Open(stable.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	mustOK(t, u.Begin("t1"))
	mustOK(t, u.Begin("t2"))
	mustOK(t, u.Put("t1", k0, "x"))
	mustOK(t, u.Put("t2", k1, "y"))
	if err := u.Put("t1", k1, "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("t1 cross acquire (single manager): err = %v, want ErrConflict", err)
	}
	if err := u.Put("t2", k0, "y"); !errors.Is(err, locking.ErrDeadlock) {
		t.Fatalf("t2 cross acquire (single manager): err = %v, want ErrDeadlock", err)
	}
	if _, _, deadlocks := u.locks.Stats(); deadlocks != 1 {
		t.Fatalf("single manager deadlocks = %d, want 1", deadlocks)
	}
}

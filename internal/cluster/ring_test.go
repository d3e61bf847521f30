package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	return keys
}

// TestRingDeterministic: the same node set yields the same assignment, in
// any insertion order, across fresh builds.
func TestRingDeterministic(t *testing.T) {
	keys := testKeys(5000)
	a, err := NewRing([]string{"n0", "n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n0", "n2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		ao := a.OwnersInto(k, 2, nil)
		bo := b.OwnersInto(k, 2, nil)
		if len(ao) != len(bo) || ao[0] != bo[0] || ao[1] != bo[1] {
			t.Fatalf("assignment differs for %q: %v vs %v", k, ao, bo)
		}
	}
}

// TestRingMinimalMovement: adding or removing one node moves roughly K/N of
// the keys and never more than a small multiple of it — the property that
// separates consistent hashing from mod-N.
func TestRingMinimalMovement(t *testing.T) {
	keys := testKeys(20000)
	nodes := []string{"n0", "n1", "n2", "n3", "n4"}
	before, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Join n5: only keys the new node captures change primary owner.
	after, err := NewRing(append(append([]string(nil), nodes...), "n5"), 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		bo, ao := before.OwnersInto(k, 1, nil)[0], after.OwnersInto(k, 1, nil)[0]
		if bo != ao {
			moved++
			if ao != "n5" {
				t.Fatalf("join moved %q from %s to %s (not the new node)", k, bo, ao)
			}
		}
	}
	ideal := len(keys) / 6
	if moved > 2*ideal {
		t.Fatalf("join moved %d keys, ideal %d — not minimal movement", moved, ideal)
	}
	if moved < ideal/3 {
		t.Fatalf("join moved only %d keys, ideal %d — new node underloaded", moved, ideal)
	}

	// Leave n2: only n2's keys change owner.
	smaller, err := NewRing([]string{"n0", "n1", "n3", "n4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved = 0
	for _, k := range keys {
		bo, so := before.OwnersInto(k, 1, nil)[0], smaller.OwnersInto(k, 1, nil)[0]
		if bo != so {
			moved++
			if bo != "n2" {
				t.Fatalf("leave moved %q whose owner was %s, not the departed node", k, bo)
			}
		}
	}
	ideal = len(keys) / 5
	if moved > 2*ideal {
		t.Fatalf("leave moved %d keys, ideal %d", moved, ideal)
	}
}

// TestRingReplicaSetDisjoint: replica sets are distinct nodes, primary
// first, never more than the ring has.
func TestRingReplicaSetDisjoint(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(3000) {
		for _, n := range []int{1, 2, 3, 4, 9} {
			owners := r.OwnersInto(k, n, nil)
			want := n
			if want > 4 {
				want = 4
			}
			if len(owners) != want {
				t.Fatalf("OwnersInto(%q, %d) = %v, want %d nodes", k, n, owners, want)
			}
			seen := map[string]bool{}
			for _, o := range owners {
				if seen[o] {
					t.Fatalf("replica set for %q has duplicate %q: %v", k, o, owners)
				}
				seen[o] = true
			}
			if primary := r.OwnersInto(k, 1, nil)[0]; owners[0] != primary {
				t.Fatalf("replica set for %q does not start at the primary: %v vs %s",
					k, owners, primary)
			}
		}
	}
}

// TestRingBalance: with default vnodes, per-node primary ownership stays
// within a reasonable band of even.
func TestRingBalance(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	r, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(40000)
	for _, k := range keys {
		counts[r.OwnersInto(k, 1, nil)[0]]++
	}
	ideal := len(keys) / len(nodes)
	for _, n := range nodes {
		if c := counts[n]; c < ideal/2 || c > 2*ideal {
			t.Fatalf("node %s owns %d keys, ideal %d — ring badly unbalanced: %v", n, c, ideal, counts)
		}
	}
}

func TestRingRejectsBadConfigs(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

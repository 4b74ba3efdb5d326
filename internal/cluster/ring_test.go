package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// synthetic canonical keys shaped like the real ones: same prefix structure,
// differing in the fields that actually vary between requests.
func testKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	arches := []string{"edge", "mobile", "server"}
	models := []string{"bert", "gpt2", "vit", "t5"}
	systems := []string{"unfused", "fused", "pipelined", "transfusion"}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("arch=%q|archfile=%q|model=%q|seq=%d|sys=%q|batch=%d|budget=%d|causal=%t|timeout=%s|heur=%t",
			arches[rng.Intn(len(arches))], "", models[rng.Intn(len(models))],
			64*(1+rng.Intn(256)), systems[rng.Intn(len(systems))],
			1+rng.Intn(8), rng.Intn(256), rng.Intn(2) == 0, "0s", false)
	}
	return keys
}

func testMembers(n int) []string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return members
}

// Ownership must be a pure function of the member set: any permutation of the
// member list, and any Add/Remove path arriving at the same set, produces the
// same owner for every key. This is the property the whole cluster tier rests
// on — replicas never exchange ring state, they each rebuild it from -peers.
func TestRingDeterministicAcrossOrderings(t *testing.T) {
	members := testMembers(5)
	keys := testKeys(2000, 1)

	forward := NewRing(members...)
	reversed := make([]string, len(members))
	for i, m := range members {
		reversed[len(members)-1-i] = m
	}
	backward := NewRing(reversed...)
	// Same set via a different construction path: build with one extra
	// member, then remove it.
	viaChange := NewRing(append([]string{"http://replica-9:8080"}, members...)...).Remove("http://replica-9:8080")

	for _, k := range keys {
		want := forward.Owner(k)
		if got := backward.Owner(k); got != want {
			t.Fatalf("owner depends on member order: %q vs %q for key %q", got, want, k)
		}
		if got := viaChange.Owner(k); got != want {
			t.Fatalf("owner depends on construction path: %q vs %q for key %q", got, want, k)
		}
	}
	if forward.Owner("any") == "" {
		t.Fatal("non-empty ring returned no owner")
	}
	if (&Ring{}).Owner("any") != "" || NewRing().Owner("any") != "" {
		t.Fatal("empty ring claimed an owner")
	}
}

// At the default virtual-node count, every member's share of a large seeded
// key population stays within the documented ±30% of fair share. Runs over
// several member counts and seeds so the bound is a property, not one lucky
// draw.
func TestRingBalanceWithinDocumentedBound(t *testing.T) {
	const keysPerTrial = 20000
	for _, nMembers := range []int{2, 3, 5, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			members := testMembers(nMembers)
			ring := NewRing(members...)
			counts := make(map[string]int, nMembers)
			for _, k := range testKeys(keysPerTrial, seed) {
				counts[ring.Owner(k)]++
			}
			fair := float64(keysPerTrial) / float64(nMembers)
			for _, m := range members {
				share := float64(counts[m]) / fair
				if share < 0.70 || share > 1.30 {
					t.Errorf("members=%d seed=%d: %s owns %.0f%% of fair share (want 70%%..130%%)",
						nMembers, seed, m, 100*share)
				}
			}
		}
	}
}

// Adding a member must move keys only onto the new member: a key whose owner
// changes must now belong to the joiner, and the moved fraction must be near
// the joiner's fair share — never a reshuffle between the old members.
func TestRingJoinRemapsMinimally(t *testing.T) {
	members := testMembers(4)
	keys := testKeys(20000, 7)
	before := NewRing(members...)
	joiner := "http://replica-new:8080"
	after := before.Add(joiner)

	moved := 0
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		if oa != joiner {
			t.Fatalf("join moved key %q between old members: %q -> %q", k, ob, oa)
		}
		moved++
	}
	// Fair share for the joiner is 1/5 of the keys; allow the same ±30%
	// tolerance the balance bound documents.
	frac := float64(moved) / float64(len(keys))
	if frac < 0.20*0.70 || frac > 0.20*1.30 {
		t.Errorf("join moved %.1f%% of keys; want ~20%% (±30%% relative)", 100*frac)
	}
}

// Removing a member must move only the keys it owned; everything else keeps
// its owner. The leaver's keys redistribute across the survivors.
func TestRingLeaveRemapsMinimally(t *testing.T) {
	members := testMembers(5)
	keys := testKeys(20000, 11)
	before := NewRing(members...)
	leaver := members[2]
	after := before.Remove(leaver)

	if after.Has(leaver) || after.Len() != 4 {
		t.Fatalf("remove left the ring in state %v", after.Members())
	}
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == leaver {
			if oa == leaver || oa == "" {
				t.Fatalf("leaver still owns key %q after removal", k)
			}
			continue
		}
		if ob != oa {
			t.Fatalf("removing %q moved unrelated key %q: %q -> %q", leaver, k, ob, oa)
		}
	}
}

// Add of an existing member and Remove of a stranger are identity operations,
// and the originals are untouched (immutability).
func TestRingAddRemoveEdgeCases(t *testing.T) {
	members := testMembers(3)
	ring := NewRing(members...)
	keys := testKeys(500, 3)

	same := ring.Add(members[0])
	gone := ring.Remove("http://not-a-member:1")
	for _, k := range keys {
		if ring.Owner(k) != same.Owner(k) {
			t.Fatalf("re-adding an existing member changed ownership of %q", k)
		}
		if ring.Owner(k) != gone.Owner(k) {
			t.Fatalf("removing a non-member changed ownership of %q", k)
		}
	}
	if ring.Len() != 3 || len(ring.Members()) != 3 {
		t.Fatalf("original ring mutated: %v", ring.Members())
	}
	// Duplicates collapse at construction.
	if NewRing(members[0], members[0], members[1]).Len() != 2 {
		t.Fatal("duplicate members were not collapsed")
	}
}

package sim

import "testing"

// TestClassesRegroupAndOwn walks one set of slots through the class
// lifecycle, with each slot's state a version number that an update
// bumps: slots updated alike follow one owner, and every slot reads the
// state it would hold had each been updated on its own.
func TestClassesRegroupAndOwn(t *testing.T) {
	const n = 8
	c := NewClasses(n)
	state := make([]int, n) // what each owning slot holds
	want := make([]int, n)  // what each slot would hold on its own
	same := func(a, b *int) bool { return *a == *b }
	round := func(cls ...int16) {
		t.Helper()
		Regroup(&c, state, 0, cls, same)
		for i, k := range cls {
			if k >= 0 {
				want[i] = 10*int(k) + want[i]%10 + 1
				if !c.Follows(i) {
					state[i] = 10*int(k) + state[i]%10 + 1
				}
			}
		}
		check(t, &c, state, want)
	}

	// One class of all eight: every slot but 0 follows slot 0.
	round(0, 0, 0, 0, 0, 0, 0, 0)
	if c.followers != n-1 || c.Splits() != 0 {
		t.Fatalf("%d followers, %d splits; want %d, 0", c.followers, c.Splits(), n-1)
	}
	// Slots 4..7 are left out: they leave as one class, with one copy.
	round(0, 0, 0, 0, -1, -1, -1, -1)
	if c.Owner(5) != 4 || c.Splits() != 1 {
		t.Fatalf("slot 5 follows %d after %d splits; want slot 4 after 1", c.Owner(5), c.Splits())
	}
	// Reading a follower copies it alone; reading an owner hands its state
	// to its first follower.
	Own(&c, state, 2)
	Own(&c, state, 4)
	if c.Follows(2) || c.Follows(4) || c.Owner(6) != 5 || c.Splits() != 3 {
		t.Fatalf("owners %v after %d splits", c.owner, c.Splits())
	}
	check(t, &c, state, want)
	// Slot 2 holds what slots 0, 1 and 3 hold, so it joins them again.
	round(0, 0, 0, 0, 4, 4, 4, 4)
	if c.Follows(4) || c.Owner(2) != 0 || c.Owner(7) != 4 {
		t.Fatalf("owners %v", c.owner)
	}
}

// check fails unless every slot reads its expected state through its owner.
func check(t *testing.T, c *Classes, state, want []int) {
	t.Helper()
	for i := range want {
		if got := state[c.Owner(i)]; got != want[i] {
			t.Fatalf("slot %d reads %d, want %d (owners %v)", i, got, want[i], c.owner)
		}
	}
}

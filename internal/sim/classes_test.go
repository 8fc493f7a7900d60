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
	// Slots 6 and 7 leave as one class owned by 6. Reading 4 hands its
	// state to 5; reading 4 or 5 again, owners no one follows, copies
	// nothing, and reading 6 hands its state to 7.
	round(0, 0, 0, 0, 4, 4, 6, 6)
	if c.Owner(7) != 6 || c.Owner(5) != 4 {
		t.Fatalf("owners %v", c.owner)
	}
	Own(&c, state, 4)
	splits := c.Splits()
	Own(&c, state, 4)
	Own(&c, state, 5)
	if c.Splits() != splits || c.Follows(4) || c.Follows(5) || c.Owner(7) != 6 {
		t.Fatalf("reading owners no one follows: owners %v, splits %d → %d", c.owner, splits, c.Splits())
	}
	Own(&c, state, 6)
	if c.Follows(7) || c.Splits() != splits+1 {
		t.Fatalf("owners %v after %d splits", c.owner, c.Splits())
	}
	check(t, &c, state, want)
}

// TestClassesFollowerCounts runs random rounds and reads over a set of
// slots: after each, every slot's follower count must equal the number
// of slots following it, and every slot must read its own state.
func TestClassesFollowerCounts(t *testing.T) {
	const n = 12
	rng := NewRNG(7)
	c := NewClasses(n)
	state := make([]int, n)
	want := make([]int, n)
	same := func(a, b *int) bool { return *a == *b }
	cls := make([]int16, n)
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) == 0 {
			Own(&c, state, rng.Intn(n))
		} else {
			for i := range cls {
				cls[i] = int16(rng.Intn(4)) - 1 // -1 leaves the slot out
			}
			Regroup(&c, state, 0, cls, same)
			for i, k := range cls {
				if k >= 0 {
					want[i] = 10*int(k) + want[i]%10 + 1
					if !c.Follows(i) {
						state[i] = 10*int(k) + state[i]%10 + 1
					}
				}
			}
		}
		check(t, &c, state, want)
	}
	if c.Splits() == 0 {
		t.Fatal("no slot ever split")
	}
}

// check fails unless every slot reads its expected state through its owner
// and every follower count is right.
func check(t *testing.T, c *Classes, state, want []int) {
	t.Helper()
	counts := make([]int16, len(want))
	followers := 0
	for i := range want {
		if got := state[c.Owner(i)]; got != want[i] {
			t.Fatalf("slot %d reads %d, want %d (owners %v)", i, got, want[i], c.owner)
		}
		if o := c.Owner(i); o != i {
			if c.Follows(o) {
				t.Fatalf("slot %d follows follower %d (owners %v)", i, o, c.owner)
			}
			counts[o]++
			followers++
		}
	}
	for i, k := range counts {
		if c.nfollow[i] != k {
			t.Fatalf("slot %d counts %d followers, has %d (owners %v, counts %v)", i, c.nfollow[i], k, c.owner, c.nfollow)
		}
	}
	if followers != c.followers {
		t.Fatalf("%d followers counted, %d present", c.followers, followers)
	}
}

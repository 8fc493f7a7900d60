package sim

// Classes shares per-slot state copy-on-write among slots that are updated
// alike. A slot either owns its state or follows an owner, an earlier slot
// whose state is bit-identical to the one the follower would hold: updating
// the owner updates every follower with it, and a follower's own entry is
// left stale until it splits out. A follower splits, copying its owner's
// state, when a round updates it unlike its owner or when it is changed
// alone (a read that folds it); an owner changed alone first hands its
// state to its first follower, which takes over the rest.
//
// The state itself lives in the caller's slice; Regroup and Own keep it
// consistent with the owner table.
type Classes struct {
	// owner[i] is the slot holding slot i's state: i itself, or an earlier
	// slot that owns its own. nfollow[i] counts the slots following slot i.
	owner     []int16
	nfollow   []int16
	followers int
	splits    uint64
}

// NewClasses returns n slots, each owning its state.
func NewClasses(n int) Classes {
	buf := make([]int16, 2*n)
	c := Classes{owner: buf[:n:n], nfollow: buf[n:]}
	for i := range c.owner {
		c.owner[i] = int16(i)
	}
	return c
}

// follow sets slot i's owner to o, keeping the follower counts.
func (c *Classes) follow(i int, o int16) {
	if p := c.owner[i]; int(p) != i {
		c.nfollow[p]--
	}
	c.owner[i] = o
	if int(o) != i {
		c.nfollow[o]++
	}
}

// Owner returns the slot whose entry holds slot i's state.
func (c *Classes) Owner(i int) int { return int(c.owner[i]) }

// Follows reports whether slot i follows another slot's state.
func (c *Classes) Follows(i int) bool { return int(c.owner[i]) != i }

// Splits counts the copies made since NewClasses: a slot that split out of
// its class, or an owner's state handed to a follower.
func (c *Classes) Splits() uint64 { return c.splits }

// Own makes slot i hold its state alone, ahead of a change made to it by
// itself: a follower copies its owner's state, and an owner hands its state
// to its first follower, which becomes the owner of the others. A slot
// that owns its state and has no followers returns at once.
func Own[T any](c *Classes, state []T, i int) {
	if c.followers == 0 {
		return
	}
	if o := int(c.owner[i]); o != i {
		state[i] = state[o]
		c.follow(i, int16(i))
		c.followers--
		c.splits++
		return
	}
	n := c.nfollow[i]
	if n == 0 {
		return
	}
	next := int16(-1)
	for j := i + 1; n > 0; j++ {
		if int(c.owner[j]) != i {
			continue
		}
		n--
		if next < 0 {
			next = int16(j)
			state[j] = state[i]
			c.owner[j] = next
			c.followers--
			c.splits++
		} else {
			c.owner[j] = next
		}
	}
	c.nfollow[next] = c.nfollow[i] - 1
	c.nfollow[i] = 0
}

// Regroup prepares an update round of slots lo, lo+1, …, lo+len(cls)-1
// before any of them is updated; no slot outside them may follow or be
// followed by one of them. cls[j] < 0 leaves slot lo+j out of the round;
// slots with equal cls >= 0 receive bit-identical updates, which the
// caller then applies to owning slots only.
//
// A follower updated unlike its owner (a different class, or one of the
// two left out) splits: it copies the owner's state, which is still the
// state before the round. The next follower of the same owner leaving for
// the same class follows it instead of copying again. An owning slot of
// the round whose state is bit-identical (same) to that of the latest
// owning slot of its class joins that slot's class, and its followers
// with it.
func Regroup[T any](c *Classes, state []T, lo int, cls []int16, same func(a, b *T) bool) {
	// Indices below are relative to lo; owner holds absolute ones.
	owner, state, base := c.owner[lo:lo+len(cls)], state[lo:lo+len(cls)], int16(lo)
	leaver, from := -1, -1 // the latest slot to split, and its owner
	last := -1             // the latest owning slot of the round
	joined := false        // whether an owning slot joined a class
	for i, k := range cls {
		if o := int(owner[i] - base); o != i {
			if k == cls[o] {
				if joined && owner[o] != owner[i] {
					c.follow(i+lo, owner[o]) // o joined a class
				}
				continue
			}
			if o == from && k == cls[leaver] {
				c.follow(i+lo, owner[leaver]) // the leaver, or the class it joined
				continue
			}
			state[i] = state[o]
			c.follow(i+lo, int16(i)+base)
			c.followers--
			c.splits++
			leaver, from = i, o
		}
		if k < 0 {
			continue
		}
		if last >= 0 && cls[last] == k && same(&state[i], &state[last]) {
			c.follow(i+lo, int16(last)+base)
			c.followers++
			joined = true
			continue
		}
		last = i
	}
}

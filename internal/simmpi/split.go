package simmpi

import "slices"

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, like MPI_Comm_split: every rank calls Split with its
// color and key; ranks sharing a color form a new communicator whose ranks
// are ordered by (key, old rank).  The call is collective over the parent
// communicator, whose last rank to arrive sorts the groups out.
//
// The returned Comm shares the parent's inboxes but renumbers ranks and
// remaps tags into a per-color tag space, so point-to-point messages on
// different sub-communicators cannot be confused with each other or with
// the parent's (as long as the application keeps its own tags below
// subTagSpan, as everywhere in resmod), and its ranks meet for collectives
// at a rendezvous no other communicator uses.
func (c *Comm) Split(color, key int) *Comm {
	c.meet(arrival{kind: "Split", n: 2, in: []float64{float64(color), float64(key)}})
	me := &c.rv.slots[c.rank] // this rank's until its next collective here
	return &Comm{
		w:       c.w,
		rank:    slices.Index(me.members, c.rank),
		size:    len(me.members),
		rv:      me.sub,
		parent:  c,
		members: me.members,
		// Disambiguate same-shape sub-communicators by their first parent
		// member (colors partition the ranks, so it is unique per group).
		tagShift: (me.members[0] + 1) * subTagSpan,
	}
}

// subTagSpan is the tag-space slice granted to each sub-communicator.
const subTagSpan = 1 << 24

// translate maps a sub-communicator rank to the transport (world) rank and
// the sub-communicator's tag space.
func (c *Comm) translate(peer, tag int) (worldRank, worldTag int) {
	if c.parent == nil {
		return peer, tag
	}
	// Recurse in case of nested splits.
	return c.parent.translate(c.members[peer], tag+c.tagShift)
}

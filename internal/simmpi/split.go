package simmpi

import (
	"fmt"
	"sort"
)

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, like MPI_Comm_split: every rank calls Split with its
// color and key; ranks sharing a color form a new communicator whose ranks
// are ordered by (key, old rank).  The call is collective over the parent
// communicator.
//
// The returned Comm shares the parent's inboxes but renumbers ranks and
// remaps tags into a per-color tag space, so collectives on different
// sub-communicators cannot interfere with each other or with the parent
// (as long as the application keeps its own point-to-point tags below the
// collective tag space, as everywhere else in resmod).
func (c *Comm) Split(color, key int) *Comm {
	// Exchange (color, key) pairs via an allgather on the parent.
	mine := []float64{float64(color), float64(key), float64(c.rank)}
	all := c.Allgather(mine)

	type member struct{ color, key, rank int }
	var group []member
	for r := 0; r < c.size; r++ {
		m := member{
			color: int(all[3*r]),
			key:   int(all[3*r+1]),
			rank:  int(all[3*r+2]),
		}
		if m.color == color {
			group = append(group, m)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	newRank := -1
	members := make([]int, len(group))
	for i, m := range group {
		members[i] = m.rank
		if m.rank == c.rank {
			newRank = i
		}
	}
	if newRank < 0 {
		panic(fmt.Sprintf("simmpi: Split lost rank %d", c.rank))
	}
	return &Comm{
		w:       c.w,
		rank:    newRank,
		size:    len(group),
		parent:  c,
		members: members,
		// Disambiguate same-shape sub-communicators by their lowest parent
		// member (colors partition the ranks, so it is unique per group).
		tagShift: (members[0] + 1) * subTagSpan,
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

package adversary

import (
	"omicon/internal/rng"
	"omicon/internal/sim"
)

// CommitteeKiller is the adaptive counterexample to committee sampling:
// the committee is public (a pure function of n and the protocol seed), so
// the adaptive adversary corrupts exactly its members and silences them.
// An oblivious adversary cannot do this — it fixes its targets before the
// execution and whp misses a committee majority — which is precisely the
// oblivious/adaptive separation of the paper's related work (Appendix A).
type CommitteeKiller struct {
	members []int
}

// NewCommitteeKiller targets the given (public) committee.
func NewCommitteeKiller(members []int) *CommitteeKiller {
	return &CommitteeKiller{members: append([]int(nil), members...)}
}

// Name implements sim.Adversary.
func (c *CommitteeKiller) Name() string { return "committee-killer" }

// Step implements sim.Adversary.
func (c *CommitteeKiller) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 {
		for _, m := range c.members {
			if len(act.Corrupt) >= v.T {
				break
			}
			act.Corrupt = append(act.Corrupt, m)
		}
	}
	bad := corruptedSet(v, act.Corrupt)
	act.Drop = dropTouching(v, bad, false)
	return act
}

// NewObliviousCrash models the weaker, non-adaptive adversary of the
// related work: it commits to t uniformly random victims before the
// execution (derived from seed alone, with no access to any view) and
// crashes them in round 1.
func NewObliviousCrash(n, t int, seed uint64) *StaticCrash {
	rnd := rng.Unmetered(seed, 0x0b11)
	perm := rnd.Perm(n)
	if t > n {
		t = n
	}
	return NewStaticCrash(perm[:t])
}

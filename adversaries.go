package omicon

import (
	"fmt"
	"strings"

	"omicon/internal/adversary"
	"omicon/internal/sim"
)

// NoFaults returns the benign adversary.
func NoFaults() Adversary { return sim.NoFaults{} }

// StaticCrash corrupts the given targets in round 1 and silences their
// outgoing traffic permanently (the omission encoding of crashes).
func StaticCrash(targets []int) Adversary { return adversary.NewStaticCrash(targets) }

// RandomOmission corrupts t random processes and drops each of their
// incident messages with the given rate.
func RandomOmission(t int, rate float64, seed uint64) Adversary {
	return adversary.NewRandomOmission(t, rate, seed)
}

// GroupKiller silences whole groups of the sqrt(n)-decomposition.
func GroupKiller(n, t int) Adversary { return adversary.NewGroupKiller(n, t) }

// HalfVisibility keeps corrupted processes visible to one half of the
// network and silent to the other.
func HalfVisibility(t int) Adversary { return adversary.NewHalfVisibility(t) }

// SplitVote is the full-information biased-majority attack: it silences
// corrupted holders of the currently leading candidate value.
func SplitVote(t int, seed uint64) Adversary { return adversary.NewSplitVote(t, seed) }

// DelayedStrike saves its budget to silence processes the moment they
// announce a decision.
func DelayedStrike(t int) Adversary { return adversary.NewDelayedStrike(t) }

// CoinHider is the Bar-Joseph/Ben-Or-style adaptive crash strategy with the
// O(sqrt(r_i log n)) per-round budget of Theorem 2's Lemmas 14-15.
func CoinHider(beta float64) Adversary { return adversary.NewCoinHider(beta) }

// Portfolio returns the full strategy portfolio for an (n, t) instance;
// experiment harnesses take the max over it.
func Portfolio(n, t int, seed uint64) []Adversary {
	return adversary.Registry(n, t, seed)
}

// Transcript is the structured per-round record of an execution.
type Transcript = sim.Transcript

// Recorded wraps an adversary (nil = fault-free) so the execution fills a
// Transcript: per-round message/bit counts, corruptions, omissions and
// termination progress. Use the transcript for debugging or JSON export
// (Transcript.WriteJSON); two executions are the same exactly when their
// encodings are byte-identical.
func Recorded(inner Adversary) (Adversary, *Transcript) {
	return sim.NewRecorder(inner)
}

// Traced wraps any adversary with a per-round text log of the execution
// dynamics (candidate counts, corruption and omission activity) written to
// w — the observability hook behind `cmd/omicon -advtrace`. (For the
// structured event stream, see Config.Trace and `cmd/omicon -trace`.)
func Traced(inner Adversary, w interface{ Write([]byte) (int, error) }) Adversary {
	return adversary.NewTraced(inner, w)
}

// FloodSplit is the one-corruption attack that breaks FloodSet (and every
// crash-model flooding algorithm) in the omission model: silence a hidden
// value for rounds 1..rounds-1, reveal it to a single victim in the last
// round. It demonstrates the crash-vs-omission separation.
func FloodSplit(rounds, victim int) Adversary {
	return adversary.NewFloodSplit(rounds, victim)
}

// Chaos returns the fuzzing adversary: random legal corruptions and drops.
func Chaos(t int, corruptRate, dropRate float64, seed uint64) Adversary {
	return adversary.NewChaos(t, corruptRate, dropRate, seed)
}

// Late wraps any adaptive strategy with a knowledge delay of d rounds
// (the Robinson–Scheideler–Setzer delayed adversary); d = 0 is the
// identity.
func Late(inner Adversary, d int) Adversary { return adversary.NewLate(inner, d) }

// Eavesdrop is the eavesdrop-limited adversary: it wiretaps at most
// budget messages per round and must base corruptions and omissions on
// what it overheard.
func Eavesdrop(t, budget int, seed uint64) Adversary {
	return adversary.NewEavesdrop(t, budget, seed)
}

// TreeCut is the structure-aware attack on the sqrt(n)-decomposition's
// relay layers: it corrupts one bag of the largest group's bag tree and
// cuts its intra-group and gossip-graph traffic while staying two-faced
// elsewhere.
func TreeCut(n, t int) Adversary { return adversary.NewTreeCut(n, t) }

// BudgetSchedule corrupts leading-value holders at the lower-bound
// harness's sustainable rate: at most ceil(beta*sqrt(r*log2(n+1)))+1
// cumulative corruptions by round r.
func BudgetSchedule(t int, beta float64) Adversary {
	return adversary.NewBudgetSchedule(t, beta)
}

// adversaryNames lists every name ParseAdversary accepts, in the order
// error messages and docs present them.
var adversaryNames = []string{
	"none", "static-crash", "random-omission", "group-killer",
	"half-visibility", "split-vote", "delayed-strike", "coin-hider",
	"chaos", "flood-split", "late", "eavesdrop", "tree-cut",
	"budget-schedule",
}

// AdversaryNames returns every name ParseAdversary accepts.
func AdversaryNames() []string { return append([]string(nil), adversaryNames...) }

// ParseAdversary maps a CLI spec to a strategy for an (n, t) instance.
// A spec is a family name, case-insensitive and whitespace-tolerant,
// optionally followed by ":key=value,..." parameters:
//
//	split-vote
//	late:d=3,inner=split-vote
//	eavesdrop:budget=8
//	chaos:corrupt=0.1,drop=0.5
//	budget-schedule:beta=2
//
// Valid names: see AdversaryNames. Unknown names and malformed or
// unknown parameters are errors.
func ParseAdversary(name string, n, t int, seed uint64) (Adversary, error) {
	base, params, err := splitAdversarySpec(name)
	if err != nil {
		return nil, err
	}
	get := func(key string) (string, bool) { v, ok := params[key]; delete(params, key); return v, ok }
	intParam := func(key string, def int) (int, error) {
		s, ok := get(key)
		if !ok {
			return def, nil
		}
		var v int
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
			return 0, fmt.Errorf("omicon: adversary %q: parameter %s=%q is not an integer", base, key, s)
		}
		return v, nil
	}
	floatParam := func(key string, def float64) (float64, error) {
		s, ok := get(key)
		if !ok {
			return def, nil
		}
		var v float64
		if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
			return 0, fmt.Errorf("omicon: adversary %q: parameter %s=%q is not a number", base, key, s)
		}
		return v, nil
	}
	checkSpent := func(adv Adversary) (Adversary, error) {
		for key := range params {
			return nil, fmt.Errorf("omicon: adversary %q: unknown parameter %q", base, key)
		}
		return adv, nil
	}

	switch base {
	case "", "none":
		return checkSpent(NoFaults())
	case "static-crash":
		targets := make([]int, t)
		for i := range targets {
			targets[i] = i
		}
		return checkSpent(StaticCrash(targets))
	case "random-omission":
		rate, err := floatParam("rate", 0.75)
		if err != nil {
			return nil, err
		}
		return checkSpent(RandomOmission(t, rate, seed))
	case "group-killer":
		return checkSpent(GroupKiller(n, t))
	case "half-visibility":
		return checkSpent(HalfVisibility(t))
	case "split-vote":
		return checkSpent(SplitVote(t, seed))
	case "delayed-strike":
		return checkSpent(DelayedStrike(t))
	case "coin-hider":
		beta, err := floatParam("beta", 1)
		if err != nil {
			return nil, err
		}
		return checkSpent(CoinHider(beta))
	case "chaos":
		corrupt, err := floatParam("corrupt", 0.2)
		if err != nil {
			return nil, err
		}
		drop, err := floatParam("drop", 0.7)
		if err != nil {
			return nil, err
		}
		return checkSpent(Chaos(t, corrupt, drop, seed))
	case "flood-split":
		rounds, err := intParam("rounds", t+1)
		if err != nil {
			return nil, err
		}
		victim, err := intParam("victim", n-1)
		if err != nil {
			return nil, err
		}
		return checkSpent(FloodSplit(rounds, victim))
	case "late":
		d, err := intParam("d", adversary.DefaultLateDelay)
		if err != nil {
			return nil, err
		}
		innerName, ok := get("inner")
		if !ok {
			innerName = "split-vote"
		}
		if strings.ContainsAny(innerName, ":=,") {
			return nil, fmt.Errorf("omicon: adversary %q: inner must be a bare family name, got %q", base, innerName)
		}
		inner, err := ParseAdversary(innerName, n, t, seed)
		if err != nil {
			return nil, err
		}
		return checkSpent(Late(inner, d))
	case "eavesdrop":
		budget, err := intParam("budget", n)
		if err != nil {
			return nil, err
		}
		return checkSpent(Eavesdrop(t, budget, seed))
	case "tree-cut":
		return checkSpent(TreeCut(n, t))
	case "budget-schedule":
		beta, err := floatParam("beta", 1)
		if err != nil {
			return nil, err
		}
		return checkSpent(BudgetSchedule(t, beta))
	default:
		return nil, fmt.Errorf("omicon: unknown adversary %q (valid: %s)",
			base, strings.Join(adversaryNames, ", "))
	}
}

// splitAdversarySpec splits "name:key=value,..." into the normalized base
// name and its parameter map. The base is trimmed and lower-cased; keys
// are too. Values keep their case.
func splitAdversarySpec(spec string) (string, map[string]string, error) {
	base, rest, hasParams := strings.Cut(spec, ":")
	base = strings.ToLower(strings.TrimSpace(base))
	params := make(map[string]string)
	if !hasParams {
		return base, params, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok || strings.TrimSpace(k) == "" {
			return "", nil, fmt.Errorf("omicon: adversary %q: malformed parameter %q (want key=value)", base, kv)
		}
		params[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return base, params, nil
}

// EclipseOn plans the graph-aware eclipse attack against a prepared
// OptimalOmissions instance: it corrupts the t processes with the most
// links into the victim set (the numVictims highest ids) and cuts those
// links. For other algorithms it returns nil.
func EclipseOn(inst *Instance, numVictims int) Adversary {
	if inst.coreParams == nil {
		return nil
	}
	return adversary.NewEclipse(inst.coreParams.Graph, inst.cfg.T, numVictims)
}

package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// keyJoinRun is everything one buffered join over seeded inner rows leaves
// behind that a key representation could change.
type keyJoinRun struct {
	heads   []int32 // per entry ordinal: first row, last row, chain length
	tails   []int32
	ns      []int32
	next    []int32
	out     [][2]int // (outer index, inner index) per output tuple, in order
	now     vclock.Time
	account map[string]vclock.Duration
}

// runKeyJoin joins outer with inner (delivered as one AppendInner per part,
// the way a fleet gather does) on a fresh pipeline over the engine's scratch.
// forceBytes takes the step off the integer representation whatever Prepare
// chose — on a private copy of the prepared state, which the plan's later runs
// must not see; intMode reports which one ran.
func runKeyJoin(t *testing.T, e *Engine, p *Plan, innerParts [][][]byte, outer [][]byte, forceBytes bool) (run keyJoinRun, intMode bool) {
	t.Helper()
	e.TL = vclock.NewTimeline("host")
	pl, err := e.StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	if forceBytes {
		private := *pl.Prepared
		private.intKeys = []intKeys{{}}
		pl.Prepared = &private
	}
	index := map[*byte]int{}
	n := 0
	for _, part := range innerParts {
		e.AppendInner(pl, 0, part)
		for _, r := range part {
			index[&r[0]] = n
			n++
		}
	}
	for i, r := range outer {
		index[&r[0]] = i
	}
	out, err := e.JoinStep(pl, 0, pl.MakeTuples(outer))
	if err != nil {
		t.Fatal(err)
	}
	// The first non-empty probe hashes the inner side; an empty one leaves it
	// unhashed, and the table is inspected as the next probe would find it.
	if hashed := pl.inner[0].tab != nil; hashed != (len(outer) > 0) {
		t.Fatalf("%d outer tuples probed, inner side hashed: %v", len(outer), hashed)
	}
	tab := pl.hashedInner(0)
	intMode = pl.intKeys[0].n > 0
	run = keyJoinRun{next: append([]int32(nil), tab.next...), now: e.TL.Now(), account: e.TL.Account()}
	if intMode != (len(tab.keys) == 0) && len(tab.entries) > 0 {
		t.Fatalf("integer mode %v, but the key arena holds %d bytes", intMode, len(tab.keys))
	}
	for _, ent := range tab.entries {
		run.heads, run.tails, run.ns = append(run.heads, ent.head), append(run.tails, ent.tail), append(run.ns, ent.n)
	}
	for _, tu := range out {
		run.out = append(run.out, [2]int{index[&tu[0][0]], index[&tu[1][0]]})
	}
	e.Scratch.Release()
	return run, intMode
}

// keyVal draws a join value: NULL now and then, a boundary integer, or one of
// few small ones, so keys recur, collide across the sign and sit at the edges.
func keyVal(rng *rand.Rand) table.Value {
	switch rng.Intn(10) {
	case 0:
		return table.NullVal()
	case 1:
		return table.IntVal([]int32{math.MinInt32, math.MaxInt32, -1, 0, 1}[rng.Intn(5)])
	}
	return table.IntVal(int32(rng.Intn(9) - 4))
}

func keyRows(t *testing.T, rng *rand.Rand, n int) [][]byte {
	rows := make([][]byte, n)
	for i := range rows {
		s := table.StrVal(fmt.Sprint("s", rng.Intn(5)))
		if rng.Intn(8) == 0 {
			s = table.NullVal()
		}
		rows[i] = keyRow(t, int32(i), keyVal(rng), keyVal(rng), s)
	}
	return rows
}

// TestKeyRepresentationsAgree is the integer key path's equivalence property:
// for random inner and outer sets the integer and the byte representation
// leave the same table (entry ordinals, chains, counts), the same output
// tuples in the same order — checked against a nested-loop oracle too — and a
// bit-identical timeline (HashBuild/HashProbe/Memcmp/Memcpy arguments). Both
// run on one scratch, poisoned at every release, so its tables keep switching
// representation between leases.
func TestKeyRepresentationsAgree(t *testing.T) {
	defer PoisonScratchOnRelease()()
	e := hostEngine(keyCatalog(t))
	e.Scratch = &Scratch{}
	rng := rand.New(rand.NewSource(18))
	plans := []*Plan{
		keyPlan([2]string{"a", "a"}),
		keyPlan([2]string{"a", "b"}, [2]string{"b", "a"}),
		keyPlan([2]string{"a", "a"}, [2]string{"a", "b"}),
	}
	// Prepared like the optimizer's plans, so every round shares one prepared
	// state per plan: forcing byte keys into it would leak into the next round.
	for _, p := range plans {
		if err := p.Prepare(e.Cat); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 150; round++ {
		p := plans[round%len(plans)]
		restore := SetBatchSize([]int{DefaultBatchSize, 1, 7}[rng.Intn(3)])
		inner := keyRows(t, rng, rng.Intn(60))
		outer := keyRows(t, rng, rng.Intn(60))
		var parts [][][]byte
		for rest := inner; ; {
			cut := rng.Intn(len(rest) + 1)
			parts = append(parts, rest[:cut])
			if rest = rest[cut:]; len(rest) == 0 {
				break
			}
		}
		asInt, wasInt := runKeyJoin(t, e, p, parts, outer, false)
		asBytes, stillInt := runKeyJoin(t, e, p, parts, outer, true)
		restore()
		if !wasInt || stillInt {
			t.Fatalf("round %d: integer representation %v, forced off %v", round, wasInt, stillInt)
		}
		if !reflect.DeepEqual(asInt, asBytes) {
			t.Fatalf("round %d (%s): representations disagree\n int  %+v\n bytes %+v", round, p.Steps[0], asInt, asBytes)
		}
		var want [][2]int
		for i, l := range outer {
			for j, r := range inner {
				match := true
				for _, c := range p.Steps[0].Conds {
					lv := table.Record{Schema: keySchema, Data: l}.GetByName(c.LeftCol)
					rv := table.Record{Schema: keySchema, Data: r}.GetByName(c.RightCol)
					match = match && !lv.Null && !rv.Null && lv.Int == rv.Int
				}
				if match {
					want = append(want, [2]int{i, j})
				}
			}
		}
		if !reflect.DeepEqual(asInt.out, want) {
			t.Fatalf("round %d (%s): join produced %v, nested loop %v", round, p.Steps[0], asInt.out, want)
		}
	}
}

// TestKeyRepresentationChoice pins who gets the integer path: one or two
// Int32 = Int32 conditions. An Int32 = CHAR condition (which matches nothing:
// the encodings' type tags differ), a CHAR key and three conditions stay on
// byte keys and keep their results.
func TestKeyRepresentationChoice(t *testing.T) {
	e := hostEngine(keyCatalog(t))
	e.Scratch = &Scratch{}
	rng := rand.New(rand.NewSource(3))
	inner, outer := keyRows(t, rng, 50), keyRows(t, rng, 50)
	for _, c := range []struct {
		plan    *Plan
		intMode bool
		empty   bool
	}{
		{keyPlan([2]string{"a", "a"}), true, false},
		{keyPlan([2]string{"a", "a"}, [2]string{"b", "b"}), true, false},
		{keyPlan([2]string{"a", "a"}, [2]string{"b", "b"}, [2]string{"a", "a"}), false, false},
		{keyPlan([2]string{"s", "s"}), false, false},
		{keyPlan([2]string{"a", "s"}), false, true},
		{keyPlan([2]string{"s", "a"}), false, true},
		{keyPlan([2]string{"a", "a"}, [2]string{"s", "b"}), false, true},
		{keyPlan([2]string{"a", "nope"}), false, true},
	} {
		run, intMode := runKeyJoin(t, e, c.plan, [][][]byte{inner}, outer, false)
		if intMode != c.intMode {
			t.Errorf("%s: integer representation %v, want %v", c.plan.Steps[0], intMode, c.intMode)
		}
		if (len(run.out) == 0) != c.empty {
			t.Errorf("%s: %d output tuples, want empty=%v", c.plan.Steps[0], len(run.out), c.empty)
		}
	}
}

// TestIntegerJoinAllocatesNothingWarm: on a scratch that has been through the
// same join once, the integer build and probe allocate nothing.
func TestIntegerJoinAllocatesNothingWarm(t *testing.T) {
	e := hostEngine(keyCatalog(t))
	e.Scratch = &Scratch{}
	inner, outer := make([][]byte, 3000), make([][]byte, 3000)
	for i := range inner {
		inner[i] = keyRow(t, int32(i), table.IntVal(int32(i%700)), table.IntVal(int32(i%3)), table.NullVal())
		outer[i] = keyRow(t, int32(i), table.IntVal(int32(i%1100)), table.IntVal(int32(i%3)), table.NullVal())
	}
	for _, p := range []*Plan{keyPlan([2]string{"a", "a"}), keyPlan([2]string{"a", "a"}, [2]string{"b", "b"})} {
		pl, err := e.StartPipeline(p)
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		allocs := testing.AllocsPerRun(5, func() {
			e.Scratch.Release()
			pl.inner[0] = innerState{}
			e.AppendInner(pl, 0, inner)
			out, err := e.JoinStep(pl, 0, pl.MakeTuples(outer))
			if err != nil {
				t.Fatal(err)
			}
			matched = len(out)
		})
		if allocs != 0 || matched == 0 {
			t.Errorf("%s: %v allocations per warm build+probe (%d tuples matched), want 0", p.Steps[0], allocs, matched)
		}
	}
}

// TestProbeKeyedTableMatchesFull: a step's whole input of at most
// 1/probeKeyedShare of the inner side's rows fills a probe-keyed table, in
// which every key the input holds resolves to the chain a full table gives
// it — head, order, length — and the join, run piece by piece as a streamed
// chain runs it, returns the same tuples in the same order with a
// bit-identical timeline. Random keys with NULLs, one and two conditions,
// piece budgets 1, 7 and unbounded.
func TestProbeKeyedTableMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	plans := []*Plan{keyPlan([2]string{"a", "a"}), keyPlan([2]string{"a", "b"}, [2]string{"b", "a"})}
	id := func(row []byte) int32 { return table.Record{Schema: keySchema, Data: row}.Get(0).Int }
	share := probeKeyedShare
	for round := 0; round < 40; round++ {
		cat := keyCatalog(t)
		inner := keyRows(t, rng, 80+rng.Intn(400))
		outer := keyRows(t, rng, 1+rng.Intn(len(inner)/share))
		loadKeyTable(t, cat, "r", inner)
		loadKeyTable(t, cat, "l", outer)
		p := plans[round%len(plans)]
		budget := []int{1, 7, math.MaxInt}[rng.Intn(3)]
		type joined struct {
			out    [][2]int32
			chains map[uint64][]int32
			tl     *vclock.Timeline
		}
		run := func(whole bool) joined {
			e := hostEngine(cat)
			e.Scratch = &Scratch{}
			pl, err := e.StartPipeline(p)
			if err != nil {
				t.Fatal(err)
			}
			rows, _, err := e.ScanAccess(pl, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			left := pl.MakeTuples(rows)
			j := joined{tl: e.TL}
			for off := 0; off < len(left); {
				out, used, err := e.joinPiece(pl, 0, left[off:], &pl.sc.piece, budget, whole)
				if err != nil {
					t.Fatal(err)
				}
				for _, tu := range out {
					j.out = append(j.out, [2]int32{id(tu[0]), id(tu[1])})
				}
				off += used
			}
			keyed := whole && probeKeyedShare == share
			if pl.inner[0].probeKeyed != keyed {
				t.Fatalf("round %d: whole input %v of %d tuples over %d inner rows: probe-keyed %v",
					round, whole, len(left), len(inner), pl.inner[0].probeKeyed)
			}
			chains := func(tab *keyTab) map[uint64][]int32 {
				m := map[uint64][]int32{}
				for _, tu := range left {
					k, ok := pl.intKeys[0].tupleKey(tu)
					if !ok {
						continue
					}
					var chain []int32
					if ent := tab.findInt(k); ent >= 0 {
						for r := tab.entries[ent].head; r >= 0; r = tab.next[r] {
							chain = append(chain, r)
						}
						if len(chain) != int(tab.entries[ent].n) {
							t.Fatalf("round %d: key %x chains %d rows, counts %d", round, k, len(chain), tab.entries[ent].n)
						}
					}
					m[k] = chain
				}
				return m
			}
			j.chains = chains(pl.inner[0].tab)
			return j
		}
		keyed, full := run(true), run(false)
		if !reflect.DeepEqual(keyed.out, full.out) || !reflect.DeepEqual(keyed.chains, full.chains) {
			t.Fatalf("round %d (%s, budget %d): probe-keyed join %v chains %v, full %v chains %v",
				round, p.Steps[0], budget, keyed.out, keyed.chains, full.out, full.chains)
		}
		if !sameTimeline(keyed.tl, full.tl) {
			t.Fatalf("round %d: probe-keyed timeline %v %v, full %v %v", round,
				keyed.tl.Now(), keyed.tl.Account(), full.tl.Now(), full.tl.Account())
		}
	}
}

package mcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// The state hashes as they stood before memory was hashed page digest by
// page digest: SHA-256 of the whole normalized checkpoint encoding,
// every page copied and encoded. They survive only as the oracles
// TestStateHashPartitionMatchesOracle holds the digest hashes to.

func oracleHashKernel(k *kernel.Kernel) [32]byte {
	s := k.Capture()
	normalizeKernel(s)
	return sha256.Sum256(s.Encode())
}

func oracleHashSMP(s *smp.System, cur int, turn uint64) [32]byte {
	snap := s.Capture()
	for _, ks := range snap.Kernels {
		normalizeKernel(ks)
	}
	snap.Mem.PageFaults = 0
	snap.Lines = nil
	h := sha256.New()
	h.Write(snap.Encode())
	h.Write([]byte{
		byte(cur), byte(cur >> 8),
		byte(turn), byte(turn >> 8), byte(turn >> 16), byte(turn >> 24),
		byte(turn >> 32), byte(turn >> 40), byte(turn >> 48), byte(turn >> 56),
	})
	return sum(h)
}

func oracleHashReboot(s *rebootStepper) [32]byte {
	h := oracleHashKernel(s.k)
	var extra [16]byte
	binary.LittleEndian.PutUint64(extra[:8], s.cursor())
	binary.LittleEndian.PutUint64(extra[8:], uint64(s.next)|uint64(s.boots)<<32)
	return sha256.Sum256(append(h[:], extra[:]...))
}

// oracleHash is the old hash of a paused stepper.
func oracleHash(st stepper) [32]byte {
	switch s := st.(type) {
	case *kernelStepper:
		return oracleHashKernel(s.k)
	case *rebootStepper:
		return oracleHashReboot(s)
	case *smpStepper:
		return oracleHashSMP(s.sys, s.cur, s.turn)
	}
	panic("mcheck: no oracle hash for this stepper")
}

// hashPairs records, for every StateHash a walk asks for, the new hash
// and the oracle's hash of the same paused state, and counts the states
// on which the two split differently.
type hashPairs struct {
	newToOld, oldToNew map[[32]byte][32]byte
	hashes, splits     int
}

func (p *hashPairs) add(h, oracle [32]byte) {
	p.hashes++
	if o, ok := p.newToOld[h]; ok && o != oracle {
		p.splits++ // one new hash, two oracle hashes: a wrong prune
	}
	if n, ok := p.oldToNew[oracle]; ok && n != h {
		p.splits++ // one oracle hash, two new hashes: a lost prune
	}
	p.newToOld[h], p.oldToNew[oracle] = oracle, h
}

// recordingModel wraps a pausable model so that its instances record
// every state hash alongside the oracle's.
type recordingModel struct {
	Model
	pairs *hashPairs
}

func (m recordingModel) New(ds []Decision, opt Options) (Instance, error) {
	in, err := m.Model.New(ds, opt)
	if err != nil {
		return nil, err
	}
	return &recordingInstance{in, m.pairs}, nil
}

type recordingInstance struct {
	Instance
	pairs *hashPairs
}

func (r *recordingInstance) Fork(d Decision) Instance {
	return &recordingInstance{r.Instance.Fork(d), r.pairs}
}

func (r *recordingInstance) StateHash() ([32]byte, bool) {
	h, ok := r.Instance.StateHash()
	r.pairs.add(h, oracleHash(r.Instance.(*instance).s))
	return h, ok
}

// partitionCap caps each walk of the partition test, so that tier-1
// stays cheap; every walk still hashes hundreds of states.
const partitionCap = 2000

// The digest hash must split states exactly as the whole-encoding hash
// did: over every pausable suite walk, at the entry's own K, the map
// from new hash to oracle hash and the map back are both functions. Then
// every prune decision, and so every count and counterexample, is the
// oracle's.
//
// Two kinds of state no suite walk reaches within its cap are added by
// hand, on forks of one paused instance: a page that exists but holds
// only zeros (a load from an untouched page allocates one), and a poke
// into a page whose digest a hash has just cached.
func TestStateHashPartitionMatchesOracle(t *testing.T) {
	newPairs := func() *hashPairs {
		return &hashPairs{newToOld: map[[32]byte][32]byte{}, oldToNew: map[[32]byte][32]byte{}}
	}
	edge := newPairs()
	in, err := build(t, "counter", nil).New(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in.RunTo(20)
	hash := func(in Instance) {
		s := in.(*instance).s
		edge.add(s.hash(), oracleHash(s))
	}
	hash(in)
	zero := in.Fork(Decision{})
	zero.(*instance).mem().Peek(0x00F0_0000)
	hash(zero)
	poked := in.Fork(Decision{})
	hash(poked)
	p := poked.(*instance)
	p.mem().Poke(p.kern().Threads()[0].Ctx.PC, 99) // into the text page
	hash(poked)
	if edge.splits > 0 {
		t.Errorf("edge states: %d of %d hashes split states unlike the oracle", edge.splits, edge.hashes)
	}

	for i, ent := range Suite() {
		m := build(t, ent.Model, ent.Over)
		if !m.Pausable() || ent.Mode != "exhaustive" {
			continue
		}
		pairs := newPairs()
		e := &Explorer{Model: recordingModel{m, pairs}, MaxDecisions: ent.K, MaxSchedules: partitionCap}
		rep, err := e.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		if pairs.splits > 0 {
			t.Errorf("entry %d %s: %d of %d hashes split states unlike the oracle", i+1, rep, pairs.splits, pairs.hashes)
		}
		if pairs.hashes == 0 && rep.Counterexample == nil {
			t.Errorf("entry %d %s: no state hashed", i+1, rep)
		}
		t.Logf("entry %d %s: %d hashes", i+1, rep, pairs.hashes)
	}
}

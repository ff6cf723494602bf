package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
)

// RunSequential executes trip iterations of the loop the way the
// dependence graph defines dataflow, with no overlap: instructions in
// program order, one iteration after the next, each use reading the
// value its reaching definition produced dist iterations earlier (the
// register's initial value when that reaches before iteration 0). It is
// the reference semantics every pipelined execution is checked against.
func RunSequential(sem *Semantics, trip int) (*State, error) {
	if trip < 1 {
		return nil, fmt.Errorf("vm: sequential run needs trip >= 1, got %d", trip)
	}
	s := newSeqRun(sem)
	s.advance(trip)
	return s.state(s.mem), nil
}

// seqRun is a sequential execution that can be resumed. Iteration i
// depends only on iterations before it, so the state after k iterations
// is a prefix of every longer run: one seqRun advanced through the
// requested trips in increasing order yields each trip's reference
// state without re-executing the shared prefix.
type seqRun struct {
	sem *Semantics
	mem []byte
	// hist[id*histLen + i%histLen] is instruction id's iteration-i
	// result: a ring of each instruction's last histLen results.
	// histLen exceeds every dependence distance, so a reaching value is
	// always still in the ring when its consumer reads it.
	hist []uint64
	src  []uint64
	// done counts the iterations executed so far.
	done int
}

func newSeqRun(sem *Semantics) *seqRun {
	return &seqRun{
		sem:  sem,
		mem:  sem.NewMemImage(),
		hist: make([]uint64, sem.Loop.NumInstrs()*sem.histLen),
		src:  make([]uint64, sem.maxSrcs),
	}
}

// advance executes iterations done..trip-1; a trip at or below done is a
// no-op.
func (s *seqRun) advance(trip int) {
	sem, h := s.sem, s.sem.histLen
	for i := s.done; i < trip; i++ {
		for id, in := range sem.Loop.Instrs {
			op := &sem.ops[id]
			src := s.src[:len(op.srcs)]
			for j, r := range op.srcs {
				if r.site < 0 || int(r.dist) > i {
					src[j] = sem.initReg(in.Uses[j])
				} else {
					src[j] = s.hist[int(r.site)*h+(i-int(r.dist))%h]
				}
			}
			out, wAddr, wVal := sem.eval(s.mem, id, i, src)
			if wAddr >= 0 {
				binary.LittleEndian.PutUint64(s.mem[wAddr:], wVal)
			}
			s.hist[id*h+i%h] = out
		}
	}
	if trip > s.done {
		s.done = trip
	}
}

// state reports the run so far as a State over mem, which is either the
// run's own image (when the run ends here) or a snapshot of it.
func (s *seqRun) state(mem []byte) *State {
	sem, h := s.sem, s.sem.histLen
	st := &State{
		Mem: mem, RegFinal: make(map[ir.VReg]uint64, len(sem.final)), Trip: s.done,
		Cycles:        s.done * sem.Loop.NumInstrs(),
		ObservableLen: sem.ObservableLen(),
	}
	for _, f := range sem.final {
		st.RegFinal[f.reg] = s.hist[f.site*h+(s.done-1)%h]
	}
	return st
}

// snapshot is the state after the iterations done so far, with its own
// copy of memory so the run can continue.
func (s *seqRun) snapshot() *State {
	return s.state(bytes.Clone(s.mem))
}

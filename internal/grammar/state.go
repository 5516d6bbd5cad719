package grammar

import (
	"fmt"
	"strconv"
)

// Frame kinds. A State is a stack of frames mirroring the recursive-descent
// parser's call stack, augmented with the typechecker's environments.
const (
	frProgram uint8 = iota
	frStream
	frQuery
	frInv
	frPred
	frValue
	frAgg
)

// Frame positions (shared constant space across kinds for readability).
const (
	// frProgram
	pg1    uint8 = iota // stream parsed; expect "=>"
	pg2                 // expect notify | action invocation | query
	pg3                 // query parsed; expect "=>"
	pg4                 // expect notify | action invocation
	pgDone              // program complete

	// frStream
	s0   // expect stream head
	sT1  // timer: expect "base"
	sT2  // expect "=" then Date value
	sT3  // expect "interval"
	sT4  // expect "=" then Measure(ms) value
	sA1  // attimer: expect "time"
	sA2  // expect "=" then Time value
	sM1  // monitor: expect "("
	sM2  // monitored query parsed; expect "on" (new) or finish
	sM2n // expect "new"
	sM3  // monitor-on list; aux counts params
	sE1  // edge: expect "("
	sE2  // inner stream parsed; expect ")"
	sE3  // expect "on" then predicate
	sDone

	// frQuery
	q0    // expect primary
	qLoop // primary parsed; postfix loop
	qJPrm // "join" consumed; expect right primary
	qJR   // right primary parsed; expect "on" or merge
	qOn1  // on-clause; expect parameter token (aux counts assignments)
	qOn2  // expect "="
	qOn3  // expect varref

	// frInv
	i0 // expect input parameter or finish
	i1 // expect "="

	// frPred
	pU  // expect unary
	pA  // unary complete; expect and/or/close
	pOp // atom parameter consumed; expect operator

	// frValue
	v0    // expect value start
	vStr  // inside quoted string
	vUnit // magnitude consumed; expect unit of frame's base
	vPH   // ms-duration placeholder consumed; unit optional
	vMeas // complete measure; "+" optional
	vPlus // "+" consumed; expect magnitude
	vDone

	// frAgg
	aOp    // expect aggregate operator
	aParam // expect bare parameter (non-count)
	aOf    // expect "of"
	aLP    // expect "("
	aRP    // inner query parsed; expect ")" gated on the aggregate obligation
)

// Frame flags.
const (
	fParen     uint16 = 1 << iota // frQuery/frPred: consumes its own ")"
	fMonOnly                      // invocations must be monitorable
	fProvOK                       // unmet required params may defer to a join "on"
	fAggInner                     // frQuery: ")" belongs to the parent frAgg
	fEdgeInner                    // frStream: only monitor/edge heads
	fConstOK                      // frValue: constants of the frame's type
	fVarRefOK                     // frValue: varrefs from env
	fStrOnly                      // frValue: quoted string only (substr-family)
)

type frame struct {
	kind    uint8
	pos     uint8
	flags   uint16
	fn      int32 // frInv: fn index; frValue: type index (-1 with fStrOnly); frPred: current atom type; frAgg: param name (-1)
	aux     int32 // frInv: current param index; frAgg: op index; frValue: expected base-unit string index; frStream/frQuery: list counters
	used    uint64
	pending uint64
	sawList bool
	env     []EnvEntry // own/result env (frQuery left env; frStream env; frPred atom env; frValue varref env)
	env2    []EnvEntry // incoming env (frQuery, frInv, frAgg)
	envR    []EnvEntry // frQuery: rightIncoming during a join
	envRt   []EnvEntry // frQuery: right operand's output env
}

// State is one decode hypothesis's position in the grammar. States are
// immutable through Step (clone-on-step), so beam forks share prefixes.
type State struct {
	frames []frame
	lastFn int32 // most recently completed invocation (the join-on target)
}

// Start returns the initial state: a program expecting its stream clause.
func (a *Automaton) Start() *State {
	return &State{
		frames: []frame{
			{kind: frProgram, pos: pg1},
			{kind: frStream, pos: s0},
		},
		lastFn: -1,
	}
}

func (st *State) clone() *State {
	c := &State{frames: make([]frame, len(st.frames)), lastFn: st.lastFn}
	copy(c.frames, st.frames)
	return c
}

func (st *State) top() *frame { return &st.frames[len(st.frames)-1] }

func (st *State) push(f frame) { st.frames = append(st.frames, f) }

func (st *State) pop() { st.frames = st.frames[:len(st.frames)-1] }

// popFx is what a completed construct delivers to its parent frame.
type popFx struct {
	kind    uint8 // fxNone, fxQuery, fxStream
	env     []EnvEntry
	sawList bool
	pending uint64
	lastFn  int32
}

const (
	fxNone uint8 = iota
	fxQuery
	fxStream
)

// canPop reports whether the top frame is finishable right now and the
// effects its completion delivers.
func (a *Automaton) canPop(st *State) (popFx, bool) {
	f := st.top()
	switch f.kind {
	case frProgram:
		if f.pos == pgDone {
			return popFx{}, true
		}
	case frStream:
		switch f.pos {
		case sDone, sM2:
			return popFx{kind: fxStream, env: f.env}, true
		case sM3:
			if f.aux >= 1 {
				return popFx{kind: fxStream, env: f.env}, true
			}
		}
	case frQuery:
		if f.pos == qLoop && f.flags&fParen == 0 {
			if f.pending == 0 || f.flags&fProvOK != 0 {
				return popFx{kind: fxQuery, env: f.env, sawList: f.sawList, pending: f.pending, lastFn: -1}, true
			}
		}
	case frInv:
		if f.pos == i0 {
			fn := &a.fns[f.fn]
			pend := fn.reqMask &^ f.used
			if pend != 0 {
				if f.flags&fProvOK == 0 {
					return popFx{}, false
				}
				for pi := 0; pi < len(fn.params); pi++ {
					if pend&(1<<uint(pi)) == 0 {
						continue
					}
					p := &fn.params[pi]
					if p.annID < 0 || !a.envAssignable(f.env2, p.typ) {
						return popFx{}, false
					}
				}
			}
			return popFx{kind: fxQuery, env: fn.outEnv, sawList: fn.list, pending: pend, lastFn: f.fn}, true
		}
	case frPred:
		if f.pos == pA && f.flags&fParen == 0 {
			return popFx{kind: fxNone}, true
		}
	case frValue:
		switch f.pos {
		case vPH, vMeas, vDone:
			return popFx{kind: fxNone}, true
		}
	}
	return popFx{}, false
}

// applyFx delivers a completed child's effects into the (new) top frame.
func applyFx(st *State, fx popFx) {
	if fx.lastFn >= 0 && fx.kind == fxQuery {
		st.lastFn = fx.lastFn
	}
	if len(st.frames) == 0 || fx.kind == fxNone {
		return
	}
	f := st.top()
	switch f.kind {
	case frProgram:
		switch f.pos {
		case pg1:
			f.env = fx.env // stream env
		case pg3:
			f.env2 = fx.env // query env
		}
	case frStream:
		switch f.pos {
		case sM2, sE2:
			f.env = fx.env
		}
	case frQuery:
		switch f.pos {
		case qLoop:
			f.env = fx.env
			f.sawList = f.sawList || fx.sawList
			f.pending |= fx.pending
		case qJR:
			f.envRt = fx.env
			f.sawList = f.sawList || fx.sawList
			f.pending |= fx.pending
		}
	case frAgg:
		if f.pos == aRP {
			f.env = fx.env
			f.sawList = fx.sawList
			f.pending |= fx.pending
		}
	}
}

// mergeJoin folds a finished join (left ⊕ right) back into the postfix loop.
func mergeJoin(f *frame) {
	f.env = extendEnv(f.env, f.envRt)
	f.envR, f.envRt = nil, nil
	f.used = 0
	f.aux = 0
	f.pos = qLoop
}

// advance performs one ε-move: an internal join/on transition, or a pop of a
// finishable frame. Returns false when the top frame needs a token.
func (a *Automaton) advance(st *State) bool {
	f := st.top()
	if f.kind == frQuery {
		if f.pos == qJR && f.pending == 0 {
			mergeJoin(f)
			return true
		}
		if f.pos == qOn1 && f.aux >= 1 && f.pending == 0 {
			mergeJoin(f)
			return true
		}
	}
	fx, ok := a.canPop(st)
	if !ok {
		return false
	}
	st.pop()
	applyFx(st, fx)
	return true
}

// tokDesc is a classified token being consumed.
type tokDesc struct {
	id      int32 // vocab id, -1 for OOV copies
	cls     tokClass
	payload int32
	word    string
}

func (a *Automaton) describe(id int, word string) tokDesc {
	if id >= 0 && id < len(a.cls) {
		return tokDesc{id: int32(id), cls: a.cls[id], payload: a.payload[id], word: word}
	}
	// OOV copy from the source sentence: a quote closes strings, numerals can
	// fill numeric slots, anything else is only a word.
	if word == `"` {
		return tokDesc{id: -1, cls: tcQuote, word: word}
	}
	if _, err := strconv.ParseFloat(word, 64); err == nil {
		return tokDesc{id: -1, cls: tcNumber, word: word}
	}
	return tokDesc{id: -1, cls: tcOther, word: word}
}

// Step consumes one emitted token, returning the successor state. st is not
// modified. id is the target-vocabulary id, or -1 for an out-of-vocabulary
// copy; word is the token's spelling (required when id < 0).
func (a *Automaton) Step(st *State, id int, word string) (*State, error) {
	tok := a.describe(id, word)
	w := st.clone()
	for i := 0; i < 64; i++ { // bounded ε-chain; real stacks are shallow
		if len(w.frames) == 0 {
			return nil, fmt.Errorf("grammar: token %q after complete program", word)
		}
		if a.consume(w, tok) {
			return w, nil
		}
		if !a.advance(w) {
			return nil, fmt.Errorf("grammar: illegal token %q", word)
		}
	}
	return nil, fmt.Errorf("grammar: runaway parse at %q", word)
}

// minTotal is the minimum number of tokens needed to complete the program
// from st (used by the decode-length budget so the mask never admits a prefix
// that cannot finish in time).
func (a *Automaton) minTotal(st *State) int {
	total := 0
	for i := range st.frames {
		total += a.frameMin(&st.frames[i])
	}
	return total
}

func pcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// pendCost is the token cost of discharging deferred required parameters in
// an enclosing join-on clause ("param = ref" per entry, plus "on" once).
func pendCost(pending uint64) int {
	if pending == 0 {
		return 0
	}
	return 1 + 3*pcount(pending)
}

func (a *Automaton) frameMin(f *frame) int {
	switch f.kind {
	case frProgram:
		switch f.pos {
		case pg1:
			return 1 + min(a.minAction, 1)
		case pg2:
			return min(a.minAction, 1)
		case pg3:
			return 2
		case pg4:
			return 1
		}
		return 0
	case frStream:
		switch f.pos {
		case s0:
			if f.flags&fEdgeInner != 0 {
				return 3 + a.minMonQuery
			}
			return a.minStream
		case sT1:
			return 4 + a.constMinDate + a.constMinMs
		case sT2:
			return 3 + a.constMinDate + a.constMinMs
		case sT3:
			return 2 + a.constMinMs
		case sT4:
			return 1 + a.constMinMs
		case sA1:
			return 2 + a.constMinTime
		case sA2:
			return 1 + a.constMinTime
		case sM1:
			return 2 + a.minMonQuery
		case sM2n:
			return 2
		case sM3:
			if f.aux == 0 {
				return 1
			}
			return 0
		case sE1:
			return 6 + a.minMonQuery + a.minPred
		case sE2:
			return 2 + a.minPred
		case sE3:
			return 1 + a.minPred
		}
		return 0
	case frQuery:
		ex := 0
		if f.flags&fParen != 0 {
			ex = 1 // the frame's own closing ")"
		}
		switch f.pos {
		case q0, qJPrm:
			return ex + a.minQuery + pendCost(f.pending)
		case qLoop:
			return ex + pendCost(f.pending)
		case qJR:
			return ex + pendCost(f.pending)
		case qOn1:
			m := 3 * pcount(f.pending)
			if f.aux == 0 && m == 0 {
				m = 3
			}
			return ex + m
		case qOn2:
			// The in-progress assignment (param f.fn) is costed by the
			// position itself; exclude its pending bit to avoid counting the
			// same tokens twice.
			return ex + 2 + 3*pcount(f.pending&^(1<<uint(f.fn)))
		case qOn3:
			return ex + 1 + 3*pcount(f.pending&^(1<<uint(f.fn)))
		}
		return ex
	case frInv:
		fn := &a.fns[f.fn]
		switch f.pos {
		case i0:
			m := 0
			unmet := fn.reqMask &^ f.used
			for pi := 0; pi < len(fn.params); pi++ {
				if unmet&(1<<uint(pi)) == 0 {
					continue
				}
				c := 2 + a.minValDyn(&fn.params[pi], f.env2)
				if f.flags&fProvOK != 0 && c > 3 {
					c = 3
				}
				m += c
			}
			return m
		case i1:
			return 1 + a.minValDyn(&fn.params[f.aux], f.env2)
		}
		return 0
	case frPred:
		m := 0
		if f.flags&fParen != 0 {
			m = 1
		}
		switch f.pos {
		case pU:
			return m + a.minPred
		case pOp:
			return m + 2
		}
		return m
	case frValue:
		switch f.pos {
		case v0:
			if f.flags&fStrOnly != 0 {
				return 2
			}
			m := noConst
			if f.flags&fConstOK != 0 {
				m = a.types[f.fn].constMin
			}
			if f.flags&fVarRefOK != 0 && a.envAssignable(f.env, f.fn) {
				m = 1
			}
			if m >= noConst {
				return 1 // should not happen: pushes are gated on producibility
			}
			return m
		case vStr, vUnit:
			return 1
		case vPlus:
			return 2
		}
		return 0
	case frAgg:
		switch f.pos {
		case aOp:
			return 4 + a.minQuery
		case aParam:
			return 4 + a.minQuery
		case aOf:
			return 3 + a.minQuery
		case aLP:
			return 2 + a.minQuery
		case aRP:
			if a.aggObligationMet(f) {
				return 1
			}
			return 2 + a.aggFixCost(f)
		}
		return 0
	}
	return 0
}

// minValDyn is the cheapest way to fill parameter p given the incoming env.
func (a *Automaton) minValDyn(p *cParam, env []EnvEntry) int {
	m := a.types[p.typ].constMin
	if m > 1 && a.envAssignable(env, p.typ) {
		m = 1
	}
	return m
}

// aggObligationMet reports whether the aggregate's typecheck obligation holds
// for the inner query parsed so far (env/sawList already delivered to f).
func (a *Automaton) aggObligationMet(f *frame) bool {
	if !f.sawList {
		return false
	}
	if f.aux == aggOpCount {
		return true
	}
	t, ok := envLookup(f.env, f.fn)
	return ok && a.types[t].numeric
}

const aggOpCount = 0 // index of "count" in aggOps

// aggFixCost is the cheapest continuation that repairs an unmet aggregate
// obligation: joining a satisfying function onto the inner query.
func (a *Automaton) aggFixCost(f *frame) int {
	if f.aux == aggOpCount {
		return 1 + a.countCand.minFn
	}
	c, ok := a.numCands[f.fn]
	if !ok {
		return noConst
	}
	return 1 + c.minFn
}

func min(x, y int) int {
	if x < y {
		return x
	}
	return y
}

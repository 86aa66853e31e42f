package evm

import (
	"errors"
	"fmt"

	"ethpart/internal/types"
)

// Execution errors. ErrRevert and ErrOutOfGas are ordinary outcomes of
// contract execution (the transaction fails, the chain continues); the
// others indicate malformed bytecode.
var (
	ErrOutOfGas            = errors.New("evm: out of gas")
	ErrStackUnderflow      = errors.New("evm: stack underflow")
	ErrStackOverflow       = errors.New("evm: stack overflow")
	ErrInvalidJump         = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode       = errors.New("evm: invalid opcode")
	ErrCallDepth           = errors.New("evm: max call depth exceeded")
	ErrInsufficientBalance = errors.New("evm: insufficient balance for transfer")
	ErrRevert              = errors.New("evm: execution reverted")
)

const (
	// maxStack is the EVM stack limit.
	maxStack = 1024
	// maxCallDepth is the EVM call depth limit.
	maxCallDepth = 1024
	// maxMemory bounds VM memory to keep the simulator well-behaved on
	// adversarial bytecode.
	maxMemory = 1 << 20
)

// RemoteHook intercepts message calls to addresses that live outside the
// executing shard. It returns true when it has taken responsibility for the
// call (for example by enqueueing a cross-shard receipt); the VM then skips
// local execution and treats the call as successful with empty output. A
// nil hook (the default) executes everything locally — the single-chain
// behaviour.
type RemoteHook func(from, to types.Address, value Word, input []byte) bool

// VM executes bytecode against a StateDB and records a call trace. A VM
// instance is single-use per transaction: create one, run Call or CreateAt
// once, read Traces. By default the trace is a fresh slice; a caller that
// executes transaction after transaction can hand the VM an old trace's
// backing array (ReuseTraces) and so record without allocating.
//
// The zero value is not usable; call New.
type VM struct {
	state  StateDB
	traces []CallTrace
	remote RemoteHook
}

// New returns a VM bound to state.
func New(state StateDB) *VM {
	return &VM{state: state}
}

// SetRemoteHook installs a cross-shard call interceptor (see RemoteHook).
func (vm *VM) SetRemoteHook(hook RemoteHook) { vm.remote = hook }

// ReuseTraces makes the VM record its call trace into buf's backing array,
// starting empty. It must be called before Call or CreateAt. Whatever buf
// held is overwritten, so the caller must be done with it —
// chain.ApplyTransactionInto passes the receipt's previous trace.
func (vm *VM) ReuseTraces(buf []CallTrace) { vm.traces = buf[:0] }

// Traces returns the call trace accumulated so far. The slice is the VM's
// own; since a VM is single-use, a caller that is done executing may keep
// it without copying (the transaction processor hands it to the receipt).
func (vm *VM) Traces() []CallTrace { return vm.traces }

// Call runs a message call from caller to `to` with the given value, input
// and gas. If `to` has no code the call degrades to a plain value transfer.
// It returns the output data and the gas left. The outer transaction entry
// is recorded at depth 0.
func (vm *VM) Call(caller, to types.Address, value Word, input []byte, gas uint64) ([]byte, uint64, error) {
	vm.traces = append(vm.traces, CallTrace{
		Kind: KindTransaction, From: caller, To: to, Value: value, Depth: 0,
	})
	return vm.call(caller, to, value, input, gas, 1)
}

// CreateAt deploys initCode at a caller-chosen address without touching the
// caller's nonce. The transaction processor uses it: the nonce bump of a
// contract-creating transaction is part of transaction validation (it must
// survive execution failure), so the processor performs it and derives the
// address itself.
//
// The deployed code is the *return value* of running initCode, matching
// Ethereum's two-phase deployment. Init code that returns nothing deploys
// an empty contract.
func (vm *VM) CreateAt(caller, addr types.Address, initCode []byte, value Word, gas uint64) (uint64, error) {
	vm.traces = append(vm.traces, CallTrace{
		Kind: KindCreate, From: caller, To: addr, Value: value, Depth: 0,
	})
	return vm.create(caller, addr, initCode, value, gas, 1)
}

// call implements message-call semantics at the given depth.
func (vm *VM) call(caller, to types.Address, value Word, input []byte, gas uint64, depth int) ([]byte, uint64, error) {
	if depth > maxCallDepth {
		return nil, gas, ErrCallDepth
	}
	if !value.IsZero() {
		if vm.state.GetBalance(caller).Cmp(value) < 0 {
			return nil, gas, ErrInsufficientBalance
		}
		vm.state.SubBalance(caller, value)
		vm.state.AddBalance(to, value)
	} else if !vm.state.Exist(to) {
		vm.state.CreateAccount(to)
	}
	code := vm.state.GetCode(to)
	if len(code) == 0 {
		return nil, gas, nil // plain transfer
	}
	return vm.run(frame{caller: caller, self: to, value: value, input: input, code: code, gas: gas, depth: depth})
}

// create implements contract-creation semantics at the given depth.
func (vm *VM) create(caller, addr types.Address, initCode []byte, value Word, gas uint64, depth int) (uint64, error) {
	if depth > maxCallDepth {
		return gas, ErrCallDepth
	}
	if !value.IsZero() {
		if vm.state.GetBalance(caller).Cmp(value) < 0 {
			return gas, ErrInsufficientBalance
		}
	}
	vm.state.CreateAccount(addr)
	if !value.IsZero() {
		vm.state.SubBalance(caller, value)
		vm.state.AddBalance(addr, value)
	}
	deployed, gasLeft, err := vm.run(frame{
		caller: caller, self: addr, value: value, input: nil, code: initCode,
		gas: gas, depth: depth,
	})
	if err != nil {
		return gasLeft, err
	}
	vm.state.SetCode(addr, deployed)
	return gasLeft, nil
}

// frame is a single execution context.
type frame struct {
	caller types.Address
	self   types.Address
	value  Word
	input  []byte
	code   []byte
	gas    uint64
	depth  int
}

// run is the interpreter loop. It returns the frame's output data and the
// gas remaining.
func (vm *VM) run(f frame) ([]byte, uint64, error) {
	var (
		stack = make([]Word, 0, 64)
		mem   []byte
		pc    int
		gas   = f.gas
	)
	jumpdests := validJumpdests(f.code)

	pop := func() Word {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return w
	}
	push := func(w Word) { stack = append(stack, w) }

	for pc < len(f.code) {
		op := Opcode(f.code[pc])
		cost := gasCost(op)
		if gas < cost {
			return nil, 0, fmt.Errorf("%w: op %s at pc %d", ErrOutOfGas, op, pc)
		}
		gas -= cost

		// Stack arity check.
		need, produce := opArity(op)
		if len(stack) < need {
			return nil, gas, fmt.Errorf("%w: op %s at pc %d needs %d, have %d",
				ErrStackUnderflow, op, pc, need, len(stack))
		}
		if len(stack)-need+produce > maxStack {
			return nil, gas, fmt.Errorf("%w: op %s at pc %d", ErrStackOverflow, op, pc)
		}

		switch {
		case op == STOP:
			return nil, gas, nil

		// Binary ops follow yellow-paper operand order: the top of the
		// stack is the first operand (a), the item below it the second (b).
		case op == ADD:
			a, b := pop(), pop()
			push(a.Add(b))
		case op == MUL:
			a, b := pop(), pop()
			push(a.Mul(b))
		case op == SUB:
			a, b := pop(), pop()
			push(a.Sub(b))
		case op == DIV:
			a, b := pop(), pop()
			push(a.Div(b))
		case op == MOD:
			a, b := pop(), pop()
			push(a.Mod(b))
		case op == LT:
			a, b := pop(), pop()
			push(boolWord(a.Cmp(b) < 0))
		case op == GT:
			a, b := pop(), pop()
			push(boolWord(a.Cmp(b) > 0))
		case op == EQ:
			a, b := pop(), pop()
			push(boolWord(a == b))
		case op == ISZERO:
			push(boolWord(pop().IsZero()))
		case op == AND:
			a, b := pop(), pop()
			push(a.And(b))
		case op == OR:
			a, b := pop(), pop()
			push(a.Or(b))
		case op == XOR:
			a, b := pop(), pop()
			push(a.Xor(b))
		case op == NOT:
			push(pop().Not())

		case op == ADDRESS:
			push(addressWord(f.self))
		case op == BALANCE:
			addr := wordAddress(pop())
			push(vm.state.GetBalance(addr))
		case op == CALLER:
			push(addressWord(f.caller))
		case op == CALLVALUE:
			push(f.value)
		case op == CALLDATALOAD:
			off := pop()
			push(calldataLoad(f.input, off))
		case op == CALLDATASIZE:
			push(WordFromUint64(uint64(len(f.input))))

		case op == POP:
			pop()
		case op == MLOAD:
			off := pop()
			m, err := memExpand(mem, off, 32)
			if err != nil {
				return nil, gas, err
			}
			mem = m
			push(WordFromBytes(mem[off.Uint64() : off.Uint64()+32]))
		case op == MSTORE:
			off, val := pop(), pop()
			m, err := memExpand(mem, off, 32)
			if err != nil {
				return nil, gas, err
			}
			mem = m
			b := val.Bytes32()
			copy(mem[off.Uint64():], b[:])
		case op == SLOAD:
			key := pop()
			push(vm.state.GetState(f.self, key))
		case op == SSTORE:
			key, val := pop(), pop()
			vm.state.SetState(f.self, key, val)

		case op == JUMP:
			dst := pop()
			if !dst.IsUint64() || !jumpdests[dst.Uint64()] {
				return nil, gas, fmt.Errorf("%w: to %s at pc %d", ErrInvalidJump, dst, pc)
			}
			pc = int(dst.Uint64())
			continue
		case op == JUMPI:
			dst, cond := pop(), pop()
			if !cond.IsZero() {
				if !dst.IsUint64() || !jumpdests[dst.Uint64()] {
					return nil, gas, fmt.Errorf("%w: to %s at pc %d", ErrInvalidJump, dst, pc)
				}
				pc = int(dst.Uint64())
				continue
			}
		case op == PC:
			push(WordFromUint64(uint64(pc)))
		case op == GAS:
			push(WordFromUint64(gas))
		case op == JUMPDEST:
			// no-op marker

		case op.IsPush():
			n := op.PushSize()
			end := pc + 1 + n
			if end > len(f.code) {
				return nil, gas, fmt.Errorf("%w: truncated %s at pc %d", ErrInvalidOpcode, op, pc)
			}
			push(WordFromBytes(f.code[pc+1 : end]))
			pc = end
			continue

		case op >= DUP1 && op <= DUP16:
			n := int(op-DUP1) + 1
			if len(stack) < n {
				return nil, gas, fmt.Errorf("%w: %s at pc %d", ErrStackUnderflow, op, pc)
			}
			push(stack[len(stack)-n])
		case op >= SWAP1 && op <= SWAP16:
			n := int(op-SWAP1) + 1
			if len(stack) < n+1 {
				return nil, gas, fmt.Errorf("%w: %s at pc %d", ErrStackUnderflow, op, pc)
			}
			top := len(stack) - 1
			stack[top], stack[top-n] = stack[top-n], stack[top]

		case op == CALL:
			// Stack (top first): gas, to, value, inOff, inSize, outOff, outSize.
			cgas := pop()
			toW := pop()
			value := pop()
			inOff, inSize := pop(), pop()
			outOff, outSize := pop(), pop()

			m, err := memExpand(mem, inOff, inSize.Uint64())
			if err != nil {
				return nil, gas, err
			}
			mem = m
			input := make([]byte, inSize.Uint64())
			copy(input, mem[inOff.Uint64():inOff.Uint64()+inSize.Uint64()])

			callGas := cgas.Uint64()
			if !cgas.IsUint64() || callGas > gas {
				callGas = gas
			}
			to := wordAddress(toW)
			vm.traces = append(vm.traces, CallTrace{
				Kind: KindCall, From: f.self, To: to, Value: value, Depth: f.depth,
			})
			// Cross-shard interception: only when the caller can afford the
			// value (the hook enqueues a receipt, so it must not run for
			// calls that would fail locally anyway).
			canAfford := value.IsZero() || vm.state.GetBalance(f.self).Cmp(value) >= 0
			if vm.remote != nil && canAfford && vm.remote(f.self, to, value, input) {
				// Handled as a cross-shard call: debit the value locally
				// (the remote side credits it when the receipt settles)
				// and report success with empty output.
				if !value.IsZero() {
					vm.state.SubBalance(f.self, value)
				}
				push(WordFromUint64(1))
				pc++
				continue
			}
			ret, gasLeft, err := vm.call(f.self, to, value, input, callGas, f.depth+1)
			gas = gas - callGas + gasLeft
			if err != nil {
				push(Word{}) // failure
			} else {
				push(WordFromUint64(1))
				if n := min(uint64(len(ret)), outSize.Uint64()); n > 0 {
					m, err := memExpand(mem, outOff, n)
					if err != nil {
						return nil, gas, err
					}
					mem = m
					copy(mem[outOff.Uint64():], ret[:n])
				}
			}

		case op == CREATE:
			// Stack (top first): value, offset, size.
			value := pop()
			off, size := pop(), pop()
			m, err := memExpand(mem, off, size.Uint64())
			if err != nil {
				return nil, gas, err
			}
			mem = m
			initCode := make([]byte, size.Uint64())
			copy(initCode, mem[off.Uint64():off.Uint64()+size.Uint64()])

			nonce := vm.state.GetNonce(f.self)
			vm.state.SetNonce(f.self, nonce+1)
			addr := types.ContractAddress(f.self, nonce)
			vm.traces = append(vm.traces, CallTrace{
				Kind: KindCreate, From: f.self, To: addr, Value: value, Depth: f.depth,
			})
			gasLeft, err := vm.create(f.self, addr, initCode, value, gas, f.depth+1)
			gas = gasLeft
			if err != nil {
				push(Word{})
			} else {
				push(addressWord(addr))
			}

		case op == RETURN:
			off, size := pop(), pop()
			m, err := memExpand(mem, off, size.Uint64())
			if err != nil {
				return nil, gas, err
			}
			mem = m
			out := make([]byte, size.Uint64())
			copy(out, mem[off.Uint64():off.Uint64()+size.Uint64()])
			return out, gas, nil

		case op == REVERT:
			return nil, gas, ErrRevert

		default:
			return nil, gas, fmt.Errorf("%w: 0x%02x at pc %d", ErrInvalidOpcode, byte(op), pc)
		}
		pc++
	}
	return nil, gas, nil
}

// opArity returns the number of stack items consumed and produced by op.
// PUSH/DUP/SWAP and flow ops handle their own checks; this covers the rest.
func opArity(op Opcode) (need, produce int) {
	switch op {
	case ADD, MUL, SUB, DIV, MOD, LT, GT, EQ, AND, OR, XOR:
		return 2, 1
	case ISZERO, NOT, BALANCE, CALLDATALOAD, MLOAD:
		return 1, 1
	case ADDRESS, CALLER, CALLVALUE, CALLDATASIZE, PC, GAS:
		return 0, 1
	case POP, JUMP:
		return 1, 0
	case MSTORE, SSTORE, JUMPI, RETURN, REVERT:
		return 2, 0
	case SLOAD:
		return 1, 1
	case CALL:
		return 7, 1
	case CREATE:
		return 3, 1
	default:
		return 0, 1 // PUSH family; DUP/SWAP check explicitly
	}
}

// validJumpdests scans code and marks every JUMPDEST that is not inside a
// PUSH immediate.
func validJumpdests(code []byte) map[uint64]bool {
	dests := make(map[uint64]bool)
	for pc := 0; pc < len(code); {
		op := Opcode(code[pc])
		if op == JUMPDEST {
			dests[uint64(pc)] = true
		}
		pc += 1 + op.PushSize()
	}
	return dests
}

// calldataLoad reads 32 bytes of calldata at off, zero-padded past the end.
func calldataLoad(input []byte, off Word) Word {
	if !off.IsUint64() || off.Uint64() >= uint64(len(input)) {
		return Word{}
	}
	start := off.Uint64()
	var buf [32]byte
	copy(buf[:], input[start:])
	return WordFromBytes(buf[:])
}

// memExpand grows mem so that [off, off+size) is addressable, enforcing the
// memory cap.
func memExpand(mem []byte, off Word, size uint64) ([]byte, error) {
	if size == 0 {
		return mem, nil
	}
	if !off.IsUint64() || off.Uint64()+size > maxMemory {
		return nil, fmt.Errorf("%w: memory access beyond cap", ErrOutOfGas)
	}
	end := off.Uint64() + size
	if uint64(len(mem)) < end {
		grown := make([]byte, end)
		copy(grown, mem)
		return grown, nil
	}
	return mem, nil
}

// addressWord widens a 20-byte address to a 256-bit word.
func addressWord(a types.Address) Word { return WordFromBytes(a[:]) }

// wordAddress narrows a word to its low 20 bytes.
func wordAddress(w Word) types.Address {
	b := w.Bytes32()
	return types.BytesToAddress(b[:])
}

func boolWord(b bool) Word {
	if b {
		return WordFromUint64(1)
	}
	return Word{}
}

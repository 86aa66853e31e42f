package evm

import (
	"errors"
	"testing"

	"ethpart/internal/types"
)

// memState is an in-memory StateDB for tests.
type memState struct {
	balances map[types.Address]Word
	nonces   map[types.Address]uint64
	codes    map[types.Address][]byte
	storage  map[types.Address]map[Word]Word
}

var _ StateDB = (*memState)(nil)

func newMemState() *memState {
	return &memState{
		balances: make(map[types.Address]Word),
		nonces:   make(map[types.Address]uint64),
		codes:    make(map[types.Address][]byte),
		storage:  make(map[types.Address]map[Word]Word),
	}
}

func (s *memState) Exist(a types.Address) bool {
	_, ok := s.balances[a]
	return ok
}
func (s *memState) CreateAccount(a types.Address) {
	if !s.Exist(a) {
		s.balances[a] = Word{}
	}
}
func (s *memState) GetBalance(a types.Address) Word { return s.balances[a] }
func (s *memState) AddBalance(a types.Address, v Word) {
	s.balances[a] = s.balances[a].Add(v)
}
func (s *memState) SubBalance(a types.Address, v Word) {
	s.balances[a] = s.balances[a].Sub(v)
}
func (s *memState) GetNonce(a types.Address) uint64    { return s.nonces[a] }
func (s *memState) SetNonce(a types.Address, n uint64) { s.nonces[a] = n }
func (s *memState) GetCode(a types.Address) []byte     { return s.codes[a] }
func (s *memState) SetCode(a types.Address, c []byte)  { s.codes[a] = c }
func (s *memState) GetState(a types.Address, k Word) Word {
	return s.storage[a][k]
}
func (s *memState) SetState(a types.Address, k, v Word) {
	m := s.storage[a]
	if m == nil {
		m = make(map[Word]Word)
		s.storage[a] = m
	}
	m[k] = v
}

var (
	alice = types.AddressFromSeq(1)
	bob   = types.AddressFromSeq(2)
)

const testGas = 10_000_000

func TestPlainTransfer(t *testing.T) {
	st := newMemState()
	st.AddBalance(alice, WordFromUint64(100))
	vm := New(st)
	_, gasLeft, err := vm.Call(alice, bob, WordFromUint64(30), nil, testGas)
	if err != nil {
		t.Fatal(err)
	}
	if gasLeft != testGas {
		t.Errorf("plain transfer consumed gas: left %d", gasLeft)
	}
	if got := st.GetBalance(alice).Uint64(); got != 70 {
		t.Errorf("alice balance = %d, want 70", got)
	}
	if got := st.GetBalance(bob).Uint64(); got != 30 {
		t.Errorf("bob balance = %d, want 30", got)
	}
	traces := vm.Traces()
	if len(traces) != 1 || traces[0].Kind != KindTransaction {
		t.Fatalf("traces = %+v, want single tx entry", traces)
	}
}

func TestTransferInsufficientBalance(t *testing.T) {
	st := newMemState()
	st.AddBalance(alice, WordFromUint64(10))
	vm := New(st)
	_, _, err := vm.Call(alice, bob, WordFromUint64(30), nil, testGas)
	if !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("err = %v, want ErrInsufficientBalance", err)
	}
	if got := st.GetBalance(alice).Uint64(); got != 10 {
		t.Errorf("failed transfer mutated balance: %d", got)
	}
}

func TestArithmeticProgram(t *testing.T) {
	// Store (7+5)*3 = 36 at storage slot 1.
	code := NewAssembler().
		Push(5).Push(7).Op(ADD). // 12
		Push(3).Op(MUL).         // MUL pops a(top)=3, b=12 -> 36
		Push(1).Op(SSTORE).      // SSTORE pops key(top)=1, val=36
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	vm := New(st)
	if _, _, err := vm.Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	got := st.GetState(bob, WordFromUint64(1))
	if got.Uint64() != 36 {
		t.Errorf("storage[1] = %v, want 36", got)
	}
}

func TestSubDivOperandOrder(t *testing.T) {
	// Yellow paper: SUB computes top - second. Push 3 then 10: top is 10.
	code := NewAssembler().
		Push(3).Push(10).Op(SUB). // 10 - 3 = 7
		Push(0).Op(SSTORE).
		Push(4).Push(20).Op(DIV). // 20 / 4 = 5
		Push(1).Op(SSTORE).
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetState(bob, WordFromUint64(0)).Uint64(); got != 7 {
		t.Errorf("SUB result = %d, want 7", got)
	}
	if got := st.GetState(bob, WordFromUint64(1)).Uint64(); got != 5 {
		t.Errorf("DIV result = %d, want 5", got)
	}
}

func TestCalldataAndCaller(t *testing.T) {
	// Store calldata word 0 at slot 0 and caller at slot 1.
	code := NewAssembler().
		Push(0).Op(CALLDATALOAD).Push(0).Op(SSTORE).
		Op(CALLER).Push(1).Op(SSTORE).
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	arg := WordFromUint64(0xabcdef)
	input := arg.Bytes32()
	if _, _, err := New(st).Call(alice, bob, Word{}, input[:], testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetState(bob, WordFromUint64(0)); got != arg {
		t.Errorf("slot0 = %v, want %v", got, arg)
	}
	if got := st.GetState(bob, WordFromUint64(1)); got != addressWord(alice) {
		t.Errorf("slot1 = %v, want caller", got)
	}
}

func TestJumpLoop(t *testing.T) {
	// Sum 1..5 with a loop: slot0 = 15.
	a := NewAssembler()
	a.Push(0) // sum
	a.Push(5) // i          stack: [sum, i]
	a.Label("loop")
	// if i == 0 goto end
	a.Op(DUP1).Op(ISZERO)
	a.JumpITo("end")
	// sum += i: stack [sum, i] -> [sum', i]
	a.Op(DUP1)                  // [sum, i, i]
	a.Op(SWAP1 + 1)             // SWAP2: [i, i, sum]
	a.Op(ADD)                   // [i, sum'] (ADD pops sum(top), i)
	a.Op(SWAP1)                 // [sum', i]
	a.Push(1).Op(SWAP1).Op(SUB) // [sum', i, 1] -> swap -> [sum', 1, i] -> SUB = i-1
	a.JumpTo("loop")
	a.Label("end")
	a.Op(POP)            // drop i
	a.Push(0).Op(SSTORE) // store sum at 0
	a.Op(STOP)
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	st := newMemState()
	st.SetCode(bob, code)
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetState(bob, WordFromUint64(0)).Uint64(); got != 15 {
		t.Errorf("loop sum = %d, want 15", got)
	}
}

func TestInternalCallProducesTraceAndTransfersValue(t *testing.T) {
	// Contract at bob forwards 5 wei to the address given in calldata.
	code := NewAssembler().
		Push(0).Push(0).          // outSize, outOff
		Push(0).Push(0).          // inSize, inOff
		Push(5).                  // value
		Push(0).Op(CALLDATALOAD). // to (from calldata)
		Push(50000).              // gas
		Op(CALL).
		Op(POP).
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	st.AddBalance(bob, WordFromUint64(100))

	carol := types.AddressFromSeq(3)
	input := addressWord(carol).Bytes32()
	vm := New(st)
	if _, _, err := vm.Call(alice, bob, Word{}, input[:], testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetBalance(carol).Uint64(); got != 5 {
		t.Errorf("carol balance = %d, want 5", got)
	}
	traces := vm.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d trace entries, want 2: %+v", len(traces), traces)
	}
	inner := traces[1]
	if inner.Kind != KindCall || inner.From != bob || inner.To != carol {
		t.Errorf("inner trace = %+v", inner)
	}
	if inner.Value.Uint64() != 5 {
		t.Errorf("inner value = %v, want 5", inner.Value)
	}
}

func TestCreateDeploysRuntimeCode(t *testing.T) {
	runtime := NewAssembler().
		Push(42).Push(0).Op(SSTORE).Op(STOP).
		MustBytes()
	init := DeployWrapper(runtime)

	st := newMemState()
	vm := New(st)
	addr := types.ContractAddress(alice, 0)
	_, err := vm.CreateAt(alice, addr, init, Word{}, testGas)
	if err != nil {
		t.Fatal(err)
	}
	got := st.GetCode(addr)
	if len(got) != len(runtime) {
		t.Fatalf("deployed %d bytes, want %d", len(got), len(runtime))
	}
	for i := range got {
		if got[i] != runtime[i] {
			t.Fatalf("deployed code differs at byte %d", i)
		}
	}
	// The deployed contract must be callable.
	vm2 := New(st)
	if _, _, err := vm2.Call(alice, addr, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if st.GetState(addr, WordFromUint64(0)).Uint64() != 42 {
		t.Error("deployed contract did not execute")
	}
	// Creation trace present.
	if tr := vm.Traces(); len(tr) != 1 || tr[0].Kind != KindCreate || tr[0].To != addr {
		t.Errorf("create trace = %+v", tr)
	}
}

func TestOutOfGas(t *testing.T) {
	code := NewAssembler().
		Push(1).Push(0).Op(SSTORE).Op(STOP). // SSTORE costs 5000
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	_, _, err := New(st).Call(alice, bob, Word{}, nil, 100)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v, want ErrOutOfGas", err)
	}
}

func TestStackUnderflow(t *testing.T) {
	code := []byte{byte(ADD)}
	st := newMemState()
	st.SetCode(bob, code)
	_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v, want ErrStackUnderflow", err)
	}
}

func TestInvalidJumpIntoPushImmediate(t *testing.T) {
	// PUSH2 0x005b ... JUMP to offset 1 (inside the immediate, looks like
	// JUMPDEST) must fail.
	code := []byte{
		byte(PUSH1) + 1, 0x00, 0x5b, // PUSH2 0x005b
		byte(PUSH1), 0x01, // PUSH1 1
		byte(JUMP),
	}
	st := newMemState()
	st.SetCode(bob, code)
	_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if !errors.Is(err, ErrInvalidJump) {
		t.Fatalf("err = %v, want ErrInvalidJump", err)
	}
}

func TestInvalidOpcode(t *testing.T) {
	st := newMemState()
	st.SetCode(bob, []byte{0xfe})
	_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if !errors.Is(err, ErrInvalidOpcode) {
		t.Fatalf("err = %v, want ErrInvalidOpcode", err)
	}
}

func TestRevert(t *testing.T) {
	code := NewAssembler().Push(0).Push(0).Op(REVERT).MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if !errors.Is(err, ErrRevert) {
		t.Fatalf("err = %v, want ErrRevert", err)
	}
}

func TestReturnData(t *testing.T) {
	// Return 32 bytes holding 99.
	code := NewAssembler().
		Push(99).Push(0).Op(MSTORE).
		Push(32).Push(0).Op(RETURN).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	out, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if err != nil {
		t.Fatal(err)
	}
	if got := WordFromBytes(out); got.Uint64() != 99 {
		t.Errorf("returned %v, want 99", got)
	}
}

func TestCalldataLoadPastEnd(t *testing.T) {
	code := NewAssembler().
		Push(100).Op(CALLDATALOAD).Push(0).Op(SSTORE).Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	if _, _, err := New(st).Call(alice, bob, Word{}, []byte{1, 2}, testGas); err != nil {
		t.Fatal(err)
	}
	if !st.GetState(bob, WordFromUint64(0)).IsZero() {
		t.Error("calldata past end must read as zero")
	}
}

func TestOpcodeStrings(t *testing.T) {
	tests := []struct {
		op   Opcode
		want string
	}{
		{ADD, "ADD"},
		{PUSH1, "PUSH1"},
		{PUSH32, "PUSH32"},
		{DUP1, "DUP1"},
		{SWAP16, "SWAP16"},
		{Opcode(0xfe), "INVALID(0xfe)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Opcode(%#x).String() = %q, want %q", byte(tt.op), got, tt.want)
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	if _, err := NewAssembler().JumpTo("missing").Bytes(); err == nil {
		t.Error("undefined label must error")
	}
	a := NewAssembler()
	a.Label("x")
	a.Label("x")
	if _, err := a.Bytes(); err == nil {
		t.Error("duplicate label must error")
	}
}

func TestCallKindString(t *testing.T) {
	for k, want := range map[CallKind]string{
		KindTransaction: "tx", KindCall: "call", KindCreate: "create", CallKind(0): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("CallKind(%d) = %q, want %q", k, got, want)
		}
	}
}

package evm

import (
	"errors"
	"testing"

	"ethpart/internal/types"
)

func TestBalanceAndAddressOpcodes(t *testing.T) {
	// Contract stores its own balance at slot 0 and its address at slot 1.
	code := NewAssembler().
		Op(ADDRESS).Op(BALANCE).Push(0).Op(SSTORE).
		Op(ADDRESS).Push(1).Op(SSTORE).
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	st.AddBalance(bob, WordFromUint64(1234))
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetState(bob, WordFromUint64(0)).Uint64(); got != 1234 {
		t.Errorf("BALANCE stored %d, want 1234", got)
	}
	if got := st.GetState(bob, WordFromUint64(1)); got != addressWord(bob) {
		t.Errorf("ADDRESS stored %v", got)
	}
}

func TestGasAndPCOpcodes(t *testing.T) {
	// Store GAS at 0 and PC at 1; both must be non-zero / expected.
	code := NewAssembler().
		Op(GAS).Push(0).Op(SSTORE).
		Op(PC).Push(1).Op(SSTORE). // PC here is the offset of the PC op
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if st.GetState(bob, WordFromUint64(0)).IsZero() {
		t.Error("GAS must be non-zero")
	}
	// PC opcode sits after GAS(1)+PUSH1 0(2)+SSTORE(1) = offset 4.
	if got := st.GetState(bob, WordFromUint64(1)).Uint64(); got != 4 {
		t.Errorf("PC = %d, want 4", got)
	}
}

func TestBitwiseAndComparisonOpcodes(t *testing.T) {
	code := NewAssembler().
		Push(0b1100).Push(0b1010).Op(AND).Push(0).Op(SSTORE). // 0b1000
		Push(0b1100).Push(0b1010).Op(OR).Push(1).Op(SSTORE).  // 0b1110
		Push(0b1100).Push(0b1010).Op(XOR).Push(2).Op(SSTORE). // 0b0110
		Push(0).Op(NOT).Push(3).Op(SSTORE).                   // all ones
		Push(5).Push(3).Op(LT).Push(4).Op(SSTORE).            // 3 < 5 = 1
		Push(3).Push(5).Op(GT).Push(5).Op(SSTORE).            // 5 > 3 = 1
		Push(7).Push(7).Op(EQ).Push(6).Op(SSTORE).            // 1
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0b1000, 0b1110, 0b0110, 0, 1, 1, 1}
	for slot, w := range want {
		got := st.GetState(bob, WordFromUint64(uint64(slot)))
		if slot == 3 {
			if got != (Word{}).Not() {
				t.Errorf("slot 3 = %v, want all-ones", got)
			}
			continue
		}
		if got.Uint64() != w {
			t.Errorf("slot %d = %v, want %d", slot, got, w)
		}
	}
}

func TestModOpcode(t *testing.T) {
	code := NewAssembler().
		Push(5).Push(17).Op(MOD).Push(0).Op(SSTORE). // 17 mod 5 = 2
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetState(bob, WordFromUint64(0)).Uint64(); got != 2 {
		t.Errorf("17 mod 5 = %d, want 2", got)
	}
}

func TestMemoryCapEnforced(t *testing.T) {
	// MSTORE far past the cap must fail.
	code := NewAssembler().
		Push(1).Push(1 << 30).Op(MSTORE).Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v, want memory cap error", err)
	}
}

func TestCallToSelfDepth(t *testing.T) {
	// A contract that calls itself recursively. Depth must be bounded and
	// the outer call must still succeed (inner failure pushes 0).
	code := NewAssembler().
		Push(0).Push(0).Push(0).Push(0).Push(0).
		Op(ADDRESS).
		Push(1_000_000).
		Op(CALL).Op(POP).Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	vm := New(st)
	if _, _, err := vm.Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	// Gas halving per level bounds recursion well below maxCallDepth, but
	// several levels must have been traced.
	if len(vm.Traces()) < 3 {
		t.Errorf("recursion traced %d calls", len(vm.Traces()))
	}
}

func TestCallOutputWrittenToMemory(t *testing.T) {
	// Callee returns 0x2a; caller stores the returned word.
	callee := NewAssembler().
		Push(42).Push(0).Op(MSTORE).
		Push(32).Push(0).Op(RETURN).
		MustBytes()
	carol := types.AddressFromSeq(77)

	caller := NewAssembler().
		Push(32).Push(0). // outSize=32 outOff=0
		Push(0).Push(0).  // inSize inOff
		Push(0).          // value
		PushAddress(carol).
		Push(100_000).
		Op(CALL).Op(POP).
		Push(0).Op(MLOAD).Push(0).Op(SSTORE).
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(carol, callee)
	st.SetCode(bob, caller)
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetState(bob, WordFromUint64(0)).Uint64(); got != 42 {
		t.Errorf("returned word = %d, want 42", got)
	}
}

func TestCreateOpcodeInsideContract(t *testing.T) {
	// A factory deploys an empty contract via CREATE and stores the new
	// address.
	factory := NewAssembler().
		Push(0).Push(0). // size=0 offset=0 (empty init code)
		Push(0).         // value
		Op(CREATE).
		Push(0).Op(SSTORE).
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, factory)
	vm := New(st)
	if _, _, err := vm.Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	stored := st.GetState(bob, WordFromUint64(0))
	if stored.IsZero() {
		t.Fatal("CREATE must push the new address")
	}
	created := wordAddress(stored)
	if !st.Exist(created) {
		t.Error("created account missing from state")
	}
	// Trace: tx + create.
	traces := vm.Traces()
	if len(traces) != 2 || traces[1].Kind != KindCreate || traces[1].From != bob {
		t.Errorf("traces = %+v", traces)
	}
	if st.GetNonce(bob) != 1 {
		t.Errorf("factory nonce = %d, want 1", st.GetNonce(bob))
	}
}

func TestStackOverflowGuard(t *testing.T) {
	// 1025 pushes must overflow the stack.
	a := NewAssembler()
	for i := 0; i < maxStack+1; i++ {
		a.Push(1)
	}
	a.Op(STOP)
	st := newMemState()
	st.SetCode(bob, a.MustBytes())
	_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
}

func TestTruncatedPushRejected(t *testing.T) {
	st := newMemState()
	st.SetCode(bob, []byte{byte(PUSH32), 0x01}) // 31 bytes missing
	_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
	if !errors.Is(err, ErrInvalidOpcode) {
		t.Fatalf("err = %v, want ErrInvalidOpcode", err)
	}
}

func TestDupSwapUnderflow(t *testing.T) {
	for _, op := range []Opcode{DUP16, SWAP16} {
		st := newMemState()
		st.SetCode(bob, []byte{byte(PUSH1), 1, byte(op)})
		_, _, err := New(st).Call(alice, bob, Word{}, nil, testGas)
		if !errors.Is(err, ErrStackUnderflow) {
			t.Fatalf("%v: err = %v, want ErrStackUnderflow", op, err)
		}
	}
}

func TestCreateWithValueMovesBalance(t *testing.T) {
	st := newMemState()
	st.AddBalance(alice, WordFromUint64(1000))
	vm := New(st)
	addr := types.ContractAddress(alice, 0)
	_, err := vm.CreateAt(alice, addr, nil, WordFromUint64(400), testGas)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.GetBalance(addr).Uint64(); got != 400 {
		t.Errorf("endowment = %d, want 400", got)
	}
	if got := st.GetBalance(alice).Uint64(); got != 600 {
		t.Errorf("creator balance = %d, want 600", got)
	}
}

func TestCreateInsufficientEndowment(t *testing.T) {
	st := newMemState()
	vm := New(st)
	_, err := vm.CreateAt(alice, types.ContractAddress(alice, 0), nil, WordFromUint64(400), testGas)
	if !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("err = %v, want ErrInsufficientBalance", err)
	}
}

func TestCalldataSizeOpcode(t *testing.T) {
	code := NewAssembler().
		Op(CALLDATASIZE).Push(0).Op(SSTORE).Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(bob, code)
	if _, _, err := New(st).Call(alice, bob, Word{}, make([]byte, 77), testGas); err != nil {
		t.Fatal(err)
	}
	if got := st.GetState(bob, WordFromUint64(0)).Uint64(); got != 77 {
		t.Errorf("CALLDATASIZE = %d, want 77", got)
	}
}

func TestFailedInnerCallDoesNotAbortOuter(t *testing.T) {
	// Callee always reverts; caller must still finish with success=0 on
	// the stack, storing 0.
	carol := types.AddressFromSeq(78)
	callee := NewAssembler().Push(0).Push(0).Op(REVERT).MustBytes()
	caller := NewAssembler().
		Push(0).Push(0).Push(0).Push(0).Push(0).
		PushAddress(carol).
		Push(50_000).
		Op(CALL).
		Push(0).Op(SSTORE). // store the success flag
		Op(STOP).
		MustBytes()
	st := newMemState()
	st.SetCode(carol, callee)
	st.SetCode(bob, caller)
	if _, _, err := New(st).Call(alice, bob, Word{}, nil, testGas); err != nil {
		t.Fatal(err)
	}
	if !st.GetState(bob, WordFromUint64(0)).IsZero() {
		t.Error("failed inner call must push 0")
	}
}

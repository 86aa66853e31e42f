package types

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestBytesToAddressPadding(t *testing.T) {
	a := BytesToAddress([]byte{0x01})
	if a[AddressLen-1] != 0x01 {
		t.Errorf("last byte = %#x, want 0x01", a[AddressLen-1])
	}
	for i := 0; i < AddressLen-1; i++ {
		if a[i] != 0 {
			t.Errorf("byte %d = %#x, want 0 (left padding)", i, a[i])
		}
	}
}

func TestBytesToAddressTruncation(t *testing.T) {
	b := make([]byte, 32)
	for i := range b {
		b[i] = byte(i)
	}
	a := BytesToAddress(b)
	// Must keep the last 20 bytes: 12..31.
	if a[0] != 12 || a[AddressLen-1] != 31 {
		t.Errorf("truncation kept wrong bytes: % x", a[:])
	}
}

func TestAddressFromSeqDeterministic(t *testing.T) {
	if AddressFromSeq(7) != AddressFromSeq(7) {
		t.Error("AddressFromSeq must be deterministic")
	}
	if AddressFromSeq(7) == AddressFromSeq(8) {
		t.Error("distinct sequence numbers must give distinct addresses")
	}
}

func TestHashDataMatchesKnownLength(t *testing.T) {
	h := HashData([]byte("hello"))
	const want = "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824" // SHA-256("hello")
	if got := fmt.Sprintf("%x", h[:]); got != want {
		t.Errorf("HashData(hello) = %s, want %s", got, want)
	}
}

func TestHashConcatEquivalence(t *testing.T) {
	a, b := []byte("foo"), []byte("bar")
	joined := HashData([]byte("foobar"))
	concat := HashConcat(a, b)
	if joined != concat {
		t.Error("HashConcat must equal HashData of concatenation")
	}
}

func TestContractAddressUnique(t *testing.T) {
	creator := AddressFromSeq(1)
	a0 := ContractAddress(creator, 0)
	a1 := ContractAddress(creator, 1)
	if a0 == a1 {
		t.Error("different nonces must yield different contract addresses")
	}
	other := AddressFromSeq(2)
	if ContractAddress(other, 0) == a0 {
		t.Error("different creators must yield different contract addresses")
	}
}

func TestPropertyAddressRoundTripIsIdempotent(t *testing.T) {
	f := func(raw [AddressLen]byte) bool {
		a := Address(raw)
		return BytesToAddress(a[:]) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHashDeterminism(t *testing.T) {
	f := func(data []byte) bool {
		return HashData(data) == HashData(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

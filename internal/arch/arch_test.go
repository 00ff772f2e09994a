package arch

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		IFetch:    "ifetch",
		Load:      "load",
		Store:     "store",
		PTW:       "ptw",
		Prefetch:  "prefetch",
		Writeback: "writeback",
		Kind(99):  "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestClassString(t *testing.T) {
	if InstrClass.String() != "instr" || DataClass.String() != "data" {
		t.Fatalf("Class strings wrong: %q %q", InstrClass, DataClass)
	}
}

func TestIsDemand(t *testing.T) {
	demand := []Kind{IFetch, Load, Store, PTW}
	for _, k := range demand {
		if !k.IsDemand() {
			t.Errorf("%v should be demand", k)
		}
	}
	for _, k := range []Kind{Prefetch, Writeback} {
		if k.IsDemand() {
			t.Errorf("%v should not be demand", k)
		}
	}
}

func TestBlockAlignment(t *testing.T) {
	a := Addr(0x12345)
	if got := BlockAddr(a); got != 0x12340 {
		t.Errorf("BlockAddr(0x12345) = %#x, want 0x12340", got)
	}
	if got := BlockNumber(a); got != 0x12345>>6 {
		t.Errorf("BlockNumber wrong: %#x", got)
	}
}

func TestPageHelpers(t *testing.T) {
	a := Addr(0x40001234)
	if PageNumber4K(a) != a>>12 {
		t.Errorf("PageNumber4K wrong")
	}
	if PageNumber2M(a) != a>>21 {
		t.Errorf("PageNumber2M wrong")
	}
}

// Property: block alignment is idempotent and never increases the address.
func TestBlockAddrProperties(t *testing.T) {
	f := func(a Addr) bool {
		b := BlockAddr(a)
		return b <= a && BlockAddr(b) == b && a-b < BlockSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a page number and the offset below the page size decompose
// the address exactly.
func TestPageDecomposition(t *testing.T) {
	f := func(a Addr) bool {
		return PageNumber4K(a)<<PageBits4K+a&(PageSize4K-1) == a &&
			PageNumber2M(a)<<PageBits2M+a&(PageSize2M-1) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryConstants(t *testing.T) {
	if BlockSize != 64 {
		t.Fatalf("BlockSize = %d, want 64", BlockSize)
	}
	if PageSize4K != 4096 {
		t.Fatalf("PageSize4K = %d", PageSize4K)
	}
	if PageSize2M != 2<<20 {
		t.Fatalf("PageSize2M = %d", PageSize2M)
	}
}

package main

import (
	"testing"

	"lbc/internal/oo7"
	"lbc/internal/rvm"
)

func TestCheckKVCatchesDivergenceAndLostWrites(t *testing.T) {
	img := seedImage(1)
	last := map[uint32]ack{}
	for _, lock := range []uint32{0, 5, 255} {
		a := ack{seq: uint64(lock) + 3}
		for i := range a.payload {
			a.payload[i] = byte(lock) ^ byte(i)
		}
		copy(img[kvSlot(lock):], a.payload[:])
		last[lock] = a
	}
	images := func() [][]byte {
		return [][]byte{append([]byte(nil), img...), append([]byte(nil), img...), append([]byte(nil), img...)}
	}
	if err := checkKV(images(), last); err != nil {
		t.Fatalf("consistent images rejected: %v", err)
	}

	diverged := images()
	diverged[2][12345]++
	if err := checkKV(diverged, last); err == nil {
		t.Fatal("diverged image on node 3 not caught")
	}

	// An acknowledged write missing everywhere: the images agree, but
	// lock 5's slot does not hold its last acknowledged payload.
	dropped := images()
	for _, im := range dropped {
		copy(im[kvSlot(5):kvSlot(5)+kvPayload], make([]byte, kvPayload))
	}
	if err := checkKV(dropped, last); err == nil {
		t.Fatal("dropped acknowledged write not caught")
	}
}

func TestLastAckedTakesHighestLockSeq(t *testing.T) {
	a := map[uint32]ack{1: {seq: 4, payload: [kvPayload]byte{'a'}}}
	b := map[uint32]ack{1: {seq: 9, payload: [kvPayload]byte{'b'}}, 2: {seq: 1}}
	got := lastAcked(a, b)
	if got[1].payload[0] != 'b' || len(got) != 2 {
		t.Fatalf("lastAcked = %+v", got)
	}
}

func TestCheckOO7CatchesDivergence(t *testing.T) {
	img, err := buildOO7(oo7.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	regions := func() []*rvm.Region {
		var out []*rvm.Region
		for i := 0; i < 2; i++ {
			r, err := rvm.Open(rvm.Options{Node: uint32(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			reg, err := r.Map(1, len(img))
			if err != nil {
				t.Fatal(err)
			}
			copy(reg.Bytes(), img)
			out = append(out, reg)
		}
		return out
	}
	if err := checkOO7(regions()); err != nil {
		t.Fatalf("identical valid images rejected: %v", err)
	}
	diverged := regions()
	diverged[1].Bytes()[len(img)/2] ^= 0xff
	if err := checkOO7(diverged); err == nil {
		t.Fatal("diverged oo7 image not caught")
	}
	broken := regions()
	for _, reg := range broken {
		clear(reg.Bytes()[:64])
	}
	if err := checkOO7(broken); err == nil {
		t.Fatal("identically broken oo7 images not caught")
	}
}

func TestCheckRecovered(t *testing.T) {
	img := seedImage(3)
	live := digest(img)
	if err := checkRecovered(img, live, 10, 10, 10); err != nil {
		t.Fatalf("correct restart rejected: %v", err)
	}
	if err := checkRecovered(img, live, 10, 9, 10); err == nil {
		t.Fatal("a dropped record not caught")
	}
	bad := append([]byte(nil), img...)
	bad[0]++
	if err := checkRecovered(bad, live, 10, 10, 10); err == nil {
		t.Fatal("a diverged recovered image not caught")
	}
}

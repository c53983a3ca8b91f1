package power

import (
	"math"
	"math/rand"
	"testing"

	"waferswitch/internal/mapping"
	"waferswitch/internal/ssc"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
)

func TestComputeComponents(t *testing.T) {
	c, err := topo.HomogeneousClos(2048, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapping.New(c, 5, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b := Compute(c, pl, tech.SiIF, tech.OpticalIO)
	// 24 chiplets x 400 W.
	if b.SSCLogicW != 9600 {
		t.Errorf("SSCLogicW = %v, want 9600", b.SSCLogicW)
	}
	// lane-hops x 200 Gbps x 0.45 pJ/bit x 1e-3.
	want := float64(pl.TotalLaneHops()) * 200 * 0.45 * 1e-3
	if math.Abs(b.InternalIOW-want) > 1e-9 {
		t.Errorf("InternalIOW = %v, want %v", b.InternalIOW, want)
	}
	// 2048 ports x 200 Gbps x 5 pJ/bit x 1e-3 = 2048 W.
	if math.Abs(b.ExternalIOW-2048) > 1e-9 {
		t.Errorf("ExternalIOW = %v, want 2048", b.ExternalIOW)
	}
	if math.Abs(b.TotalW()-(b.SSCLogicW+b.InternalIOW+b.ExternalIOW)) > 1e-9 {
		t.Error("TotalW does not sum components")
	}
}

func TestComputeNilPlacement(t *testing.T) {
	c, err := topo.HomogeneousClos(2048, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	b := Compute(c, nil, tech.SiIF, tech.SerDes)
	if b.InternalIOW != 0 {
		t.Errorf("InternalIOW = %v with nil placement, want 0", b.InternalIOW)
	}
	// SerDes: 8 pJ/bit: 2048 x 200 x 8e-3 = 3276.8 W.
	if math.Abs(b.ExternalIOW-3276.8) > 1e-6 {
		t.Errorf("ExternalIOW = %v, want 3276.8", b.ExternalIOW)
	}
}

func TestIOShare(t *testing.T) {
	b := Breakdown{SSCLogicW: 60, InternalIOW: 25, ExternalIOW: 15}
	if got := b.IOShare(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("IOShare = %v, want 0.4", got)
	}
	if got := (Breakdown{}).IOShare(); got != 0 {
		t.Errorf("zero breakdown IOShare = %v, want 0", got)
	}
}

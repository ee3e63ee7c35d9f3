package campaign_test

import (
	"slices"
	"testing"

	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/harden"
)

// TestSubjectEngineModes: each Mode maps to its eligibility mask, only
// detection engines classify detections, and the report labels are the
// ones served and exported reports carry.
func TestSubjectEngineModes(t *testing.T) {
	a, _ := all.ByName("adpcm")
	sub, err := campaign.NewSubject(a.Source(), core.PolicyControlAddr, &harden.Options{DupCompare: true, Signatures: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode  campaign.Mode
		mask  []bool
		label string
	}{
		{campaign.Protected, sub.Report.Tagged, "protected"},
		{campaign.Unprotected, core.EligibleAll(sub.Prog), "unprotected"},
		{campaign.Detection, sub.Hardened.PrimaryProtected, "hardened (detection campaign)"},
	} {
		e, err := sub.Engine(tc.mode, a.Input(), nil, campaign.Config{})
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if !slices.Equal(e.Eligible, tc.mask) {
			t.Errorf("%v: engine mask differs from the mode's mask", tc.mode)
		}
		if (e.DetectClass != nil) != (tc.mode == campaign.Detection) {
			t.Errorf("%v: DetectClass set = %v", tc.mode, e.DetectClass != nil)
		}
		if got := tc.mode.String(); got != tc.label {
			t.Errorf("label %q, want %q", got, tc.label)
		}
	}
}

package core

import "testing"

func TestJudge(t *testing.T) {
	cases := []struct {
		name        string
		strong, lso int
		confirmed   bool
		want        Verdict
	}{
		{"nothing", 0, 0, false, VerdictNoEvidence},
		{"nothing-confirmed", 0, 0, true, VerdictNoEvidence},
		{"lso-only", 0, 1, false, VerdictAmbiguous},
		{"lso-only-confirmed", 0, 1, true, VerdictAmbiguous},
		{"strong", 1, 0, false, VerdictDetected},
		{"strong-confirmed", 1, 0, true, VerdictCorroborated},
		{"strong-plus-lso", 1, 1, false, VerdictCorroborated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := JudgeCounts(c.strong, c.lso, c.confirmed); got != c.want {
				t.Errorf("JudgeCounts(%d, %d, %v) = %v, want %v", c.strong, c.lso, c.confirmed, got, c.want)
			}
		})
	}
	if VerdictAmbiguous.String() != "ambiguous" || Verdict(9).String() != "?" {
		t.Error("verdict names wrong")
	}
}

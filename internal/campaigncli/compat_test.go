package campaigncli

import (
	"path/filepath"
	"testing"

	"omicon/internal/experiments"
	"omicon/internal/journal"
	"omicon/internal/metrics"
	"omicon/internal/torture"
	"omicon/internal/tournament"
)

// TestJournalBytesPinned pins journal compatibility across the move onto
// the campaign kernel: for one tiny campaign per family, the content keys
// and payloads a fresh journal holds — including the exact guard-record
// JSON, which resume compares with bytes.Equal — are the literals captured
// from the drivers as they were before the kernel existed (commit da40ea0).
// A journal written by an older build must keep resuming under this one.
func TestJournalBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(j *journal.Journal) error
		want map[string]string
	}{
		{"torture", func(j *journal.Journal) error {
			_, err := torture.Run(torture.Options{
				Trials: 1, Seed: 3, Protocols: []string{"phaseking"}, Adversaries: []string{"none"},
				Shrink: true, ShrinkMaxRuns: 40, DeterminismEvery: 7,
				Envelope: metrics.Envelope{MaxRounds: 500}, Shards: 2, Workers: 1, Journal: j,
			})
			return err
		}, map[string]string{
			"torture-campaign/v1":              `{"v":1,"seed":3,"protocols":["phaseking"],"adversaries":["none"],"shrink":true,"shrinkMaxRuns":40,"determinismEvery":7,"envelope":{"MaxRounds":500,"MaxMessages":0,"MaxCommBits":0,"MaxRandomBits":0,"MaxRandomCalls":0,"MaxCrashes":0,"MaxRetries":0},"shards":2}`,
			"1adc3aa38c1c69e4e06bb8d46691a6d9": `{"v":1,"trial":0,"protocol":"phaseking","adversary":"none","n":12,"t":2,"seed":2092789425003139053,"detChecked":true,"schedule":{"rounds":null}}`,
		}},
		{"tournament", func(j *journal.Journal) error {
			_, err := tournament.Run(tournament.Options{
				TrialsPerCell: 1, Seed: 7, Protocols: []string{"phaseking"}, Adversaries: []string{"none"},
				Sizes: []int{8}, Workers: 1, Journal: j,
			})
			return err
		}, map[string]string{
			"tournament-campaign/v1":           `{"v":1,"seed":7,"trialsPerCell":1,"protocols":["phaseking"],"adversaries":["none"],"sizes":[8],"envelope":{"MaxRounds":0,"MaxMessages":0,"MaxCommBits":0,"MaxRandomBits":0,"MaxRandomCalls":0,"MaxCrashes":0,"MaxRetries":0}}`,
			"033e3b76f363986fa4bb18304ff27522": `{"v":1,"protocol":"phaseking","adversary":"none","n":8,"t":1,"variant":0,"seed":17278253711279458617,"rounds":4}`,
		}},
		{"sweep-thm1", func(j *journal.Journal) error {
			_, err := experiments.Thm1Detailed([]int{33}, 1, 1, experiments.Exec{Workers: 1, Journal: j})
			return err
		}, map[string]string{
			"0c795a409e2c97cbdcb1e16a7e82588e": `{"adversary":"eclipse","rounds":139,"commBits":2417808,"randBits":0}`,
			"0d37caab4fecc6a879b3c02bfe0e475d": `{"adversary":"half-visibility","rounds":139,"commBits":2304072,"randBits":32}`,
			"322839122c3d63fcca5de9f659f21762": `{"adversary":"random-omission","rounds":139,"commBits":2284352,"randBits":0}`,
			"3bc7af247bc8a4501d38414a79012395": `{"adversary":"split-vote","rounds":139,"commBits":2314400,"randBits":0}`,
			"6e9ca10c68da6107116fd091ab9c1ea3": `{"adversary":"static-crash","rounds":139,"commBits":2304072,"randBits":32}`,
			"755b5b53f7821c6035bb96914652d942": `{"adversary":"chaos","rounds":139,"commBits":2302504,"randBits":0}`,
			"c22ce2f2c744ddae4d89cc17bdd4feda": `{"adversary":"group-killer","rounds":139,"commBits":2300760,"randBits":32}`,
			"c665a99ad1eaf04e499e33b60aaa5570": `{"adversary":"delayed-strike","rounds":139,"commBits":2346568,"randBits":0}`,
			"fc9d98bf8ded62b49fb0c73d758ad6ef": `{"adversary":"none","rounds":139,"commBits":2430816,"randBits":0}`,
		}},
		{"sweep-thm3", func(j *journal.Journal) error {
			_, err := experiments.Thm3Sweep(16, 0, []int{4}, 1, 9, false, experiments.Exec{Workers: 1, Journal: j})
			return err
		}, map[string]string{
			"77c6e54ccdb82c3c21d0c59037e3e54d": `{"Rounds":121,"Messages":11024,"CommBits":103552,"RandomBits":16,"RandomCalls":16,"Crashes":0,"Retries":0}`,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.wal")
			j, _, err := journal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.run(j); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			live, _, err := journal.Scan(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(live) != len(c.want) {
				t.Errorf("journal holds %d records, want %d", len(live), len(c.want))
			}
			for key, want := range c.want {
				if got := string(live[key]); got != want {
					t.Errorf("record %s:\n got %s\nwant %s", key, got, want)
				}
			}
		})
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"refereenet/internal/engine"
)

// FuzzPlanSubmit runs the POST /jobs steps that come before admission —
// JSON decode, validatePlan, Fingerprint — on arbitrary bodies. No body may
// panic them, and a plan that passes validation must fingerprint, or the
// handler would answer 400 for a plan it had just declared valid. Nothing
// is admitted or executed.
func FuzzPlanSubmit(f *testing.F) {
	valid, err := json.Marshal(grayPlan(5, 0, 1<<10, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"shards":[{"protocol":"oracle-conn","decide":true,"source":{"kind":"canon","n":6,"hi":156}}]}`))
	f.Add([]byte(`{"shards":[{"protocol":"hash16","source":{"kind":"family","family":"gnp","n":9,"p":0.2,"count":10}}]}`))
	f.Add([]byte(`{"shards":[`))
	f.Add([]byte(`{"shards":[]}`))
	f.Add([]byte(`{"shards":[{"protocol":"nope","source":{"kind":"gray","n":5,"hi":32}}]}`))
	f.Add([]byte(`{"shards":[{"protocol":"hash16","source":{"kind":"nope","n":5,"hi":32}}]}`))
	f.Add([]byte(`{"shards":[{"protocol":"hash16","sched":"nope","source":{"kind":"gray","n":5,"hi":32}}]}`))
	f.Add([]byte(`{"shards":[` + strings.Repeat(`{"protocol":"hash16","source":{"kind":"gray","n":5,"hi":32}},`, 3) + `{}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var plan engine.Plan
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&plan); err != nil {
			return
		}
		if err := validatePlan(plan); err != nil {
			return
		}
		if _, err := plan.Fingerprint(); err != nil {
			t.Fatalf("validated plan %s does not fingerprint: %v", body, err)
		}
	})
}

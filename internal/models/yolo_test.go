package models

import "testing"

func TestLookupAnyFallsThrough(t *testing.T) {
	if _, err := LookupAny("ResNet-50"); err != nil {
		t.Fatal("LookupAny must find suite models")
	}
	if _, err := LookupAny("nope"); err == nil {
		t.Fatal("unknown model must fail")
	}
}

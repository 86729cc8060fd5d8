package store

import (
	"net/url"
	"strings"
	"testing"
)

// querySeeds are raw queries around every rule url.ParseQuery applies:
// first value wins, '+' and %-escapes decode in keys and values, a pair
// holding ';' or a bad escape is skipped, empty pairs and a missing '='
// are allowed.
var querySeeds = []struct{ raw, key string }{
	{"", "model"},
	{"model=taxi-lr-0", "model"},
	{"model=a&model=b", "model"},
	{"model=a&version=3", "version"},
	{"model", "model"},
	{"model=", "model"},
	{"=x&model=y", ""},
	{"&&model=a&&", "model"},
	{"model=a;b&model=c", "model"},
	{"model;=a", "model"},
	{"model=%zz&model=ok", "model"},
	{"mo%64el=x", "model"},
	{"mo%zzdel=x&model=y", "model"},
	{"model=a+b%20c", "model"},
	{"key=hour_speed&index=%2B3", "index"},
	{"model+x=1", "model x"},
	{"index=", "index"},
	{"index", "index"},
	{"%=x&model=y", "model"},
	{"model=%e2%82%ac", "model"},
	{"model=%", "model"},
	{"model=a%2", "model"},
}

// checkQuery holds queryValue to url.ParseQuery's Values, which is what
// r.URL.Query() builds.
func checkQuery(t *testing.T, raw, key string) {
	t.Helper()
	m, _ := url.ParseQuery(raw) // an error still returns every valid pair
	got, ok := queryValue(raw, key)
	if want, has := m.Get(key), m.Has(key); got != want || ok != has {
		t.Fatalf("queryValue(%q, %q) = %q, %v; url.Values says %q, %v", raw, key, got, ok, want, has)
	}
	if got := queryGet(raw, key); got != m.Get(key) {
		t.Fatalf("queryGet(%q, %q) = %q; url.Values.Get says %q", raw, key, got, m.Get(key))
	}
}

func TestQueryValueMatchesParseQuery(t *testing.T) {
	for _, c := range querySeeds {
		checkQuery(t, c.raw, c.key)
	}
}

// TestQueryValueAllocs: reading a plain query allocates nothing.
func TestQueryValueAllocs(t *testing.T) {
	raw := "model=taxi-lr-0&version=12&key=hour_speed&index=7"
	got := testing.AllocsPerRun(100, func() {
		for _, key := range []string{"model", "version", "key", "index", "absent"} {
			queryValue(raw, key)
		}
	})
	if got != 0 {
		t.Errorf("%v allocations per lookup round over an unescaped query, want 0", got)
	}
}

// FuzzQueryValue: the raw-query lookup answers what url.Values.Get and
// Has answer for every query and key.
func FuzzQueryValue(f *testing.F) {
	for _, c := range querySeeds {
		f.Add(c.raw, c.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		// Newer toolchains refuse a query of more pairs than
		// GODEBUG urlmaxqueryparams (10000 by default) outright.
		if strings.Count(raw, "&")+strings.Count(raw, ";") >= 9000 {
			t.Skip()
		}
		checkQuery(t, raw, key)
	})
}

package store

import (
	"net/url"
	"strings"
)

// queryValue answers what url.ParseQuery(raw).Get(key) and Has(key)
// answer, without building the map: the first pair for key wins, keys
// and values are unescaped as ParseQuery unescapes them, and a pair
// holding a ';' or failing to decode is skipped. It allocates only to
// unescape a key or value that carries a '%' or a '+'.
func queryValue(raw, key string) (value string, ok bool) {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil || k != key {
			continue
		}
		if v, err = url.QueryUnescape(v); err == nil {
			return v, true
		}
	}
	return "", false
}

// queryGet is url.Values.Get over a raw query.
func queryGet(raw, key string) string {
	v, _ := queryValue(raw, key)
	return v
}

package ops

import (
	"dais/internal/core"
	"dais/internal/xmlutil"
)

// CoreResourceList message codecs. The optional CoreResourceList
// interface (paper §4.3: GetResourceList / Resolve) is served by two
// very different hosts — a daisd endpoint listing the resources of its
// own data service, and the federation gateway listing the merged
// resources of a whole cluster — so the response shapes live here,
// next to the specs, and both hosts plus the consumer client share one
// code path by construction.

// ResourceListResponse builds the GetResourceListResponse element for a
// set of abstract names (callers pass them pre-sorted for determinism;
// the single-service path sorts in core.DataService.GetResourceList and
// the gateway sorts its merged list).
func ResourceListResponse(names []string) *xmlutil.Element {
	resp := GetResourceList.NewResponse()
	for _, n := range names {
		resp.AddText(core.NSDAI, "DataResourceAbstractName", n)
	}
	return resp
}

// ParseResourceList extracts the abstract names from a
// GetResourceListResponse element.
func ParseResourceList(resp *xmlutil.Element) []string {
	var out []string
	for _, el := range resp.FindAll(core.NSDAI, "DataResourceAbstractName") {
		out = append(out, el.Text())
	}
	return out
}

// AbstractNameText returns the DataResourceAbstractName carried in a
// request body ("" when absent). The service layer's AbstractNameOf
// wraps this with the mandatory-framing error; the gateway uses it to
// route without re-decoding the full message.
func AbstractNameText(body *xmlutil.Element) string {
	if body == nil {
		return ""
	}
	return body.FindText(core.NSDAI, "DataResourceAbstractName")
}

package core

import (
	"fmt"
	"strings"

	"dais/internal/xmlutil"
)

// NSDAI is the WS-DAI namespace; property document elements and core
// message bodies live in it.
const NSDAI = "http://www.ggf.org/namespaces/2005/12/WS-DAI"

// The property document's names, the fault details' and the message
// parts every realisation shares.
func init() {
	xmlutil.RegisterVocabulary(NSDAI,
		"DataResourcePropertyDocument", "DataResourceAbstractName", "ParentDataResource",
		"DataResourceManagement", "ConcurrentAccess", "DatasetMap", "MessageFormat",
		"ConfigurationMap", "MessageName", "PortTypeQName", "ConfigurationDocument",
		"GenericQueryLanguage", "DataResourceDescription", "Readable", "Writeable",
		"TransactionInitiation", "TransactionIsolation", "Sensitivity",
		"Message", "Value", "Result",
		"InvalidDatasetFormatFault", "InvalidExpressionFault", "InvalidLanguageFault",
		"InvalidResourceNameFault", "NotAuthorizedFault", "RequestTimeoutFault", "ServiceBusyFault")
}

// Management distinguishes the two data resource categories of §3:
// externally managed resources exist independently of DAIS services;
// service managed resources live inside the middleware and die with
// their service relationship.
type Management int

// Management values.
const (
	ExternallyManaged Management = iota
	ServiceManaged
)

// String renders the property value used in property documents.
func (m Management) String() string {
	if m == ServiceManaged {
		return "ServiceManaged"
	}
	return "ExternallyManaged"
}

// ParseManagement decodes a property value.
func ParseManagement(s string) (Management, error) {
	switch strings.TrimSpace(s) {
	case "ExternallyManaged":
		return ExternallyManaged, nil
	case "ServiceManaged":
		return ServiceManaged, nil
	}
	return ExternallyManaged, fmt.Errorf("dais: unknown DataResourceManagement %q", s)
}

// TransactionInitiation enumerates the transactional behaviours of the
// WS-DAI TransactionInitiation property (paper §4.2): none, an atomic
// transaction per message, or a consumer-controlled context.
type TransactionInitiation int

// TransactionInitiation values.
const (
	TransactionNotSupported TransactionInitiation = iota
	TransactionPerMessage
	TransactionConsumerControlled
)

// String renders the property value.
func (t TransactionInitiation) String() string {
	switch t {
	case TransactionPerMessage:
		return "TransactionPerMessage"
	case TransactionConsumerControlled:
		return "TransactionConsumerControlled"
	}
	return "TransactionNotSupported"
}

// ParseTransactionInitiation decodes a property value.
func ParseTransactionInitiation(s string) (TransactionInitiation, error) {
	switch strings.TrimSpace(s) {
	case "TransactionNotSupported", "":
		return TransactionNotSupported, nil
	case "TransactionPerMessage":
		return TransactionPerMessage, nil
	case "TransactionConsumerControlled":
		return TransactionConsumerControlled, nil
	}
	return TransactionNotSupported, fmt.Errorf("dais: unknown TransactionInitiation %q", s)
}

// Sensitivity describes whether a derived data resource reflects later
// changes to its parent (paper §4.2).
type Sensitivity int

// Sensitivity values.
const (
	Insensitive Sensitivity = iota
	Sensitive
)

// String renders the property value.
func (s Sensitivity) String() string {
	if s == Sensitive {
		return "Sensitive"
	}
	return "Insensitive"
}

// ParseSensitivity decodes a property value.
func ParseSensitivity(v string) (Sensitivity, error) {
	switch strings.TrimSpace(v) {
	case "Insensitive", "":
		return Insensitive, nil
	case "Sensitive":
		return Sensitive, nil
	}
	return Insensitive, fmt.Errorf("dais: unknown Sensitivity %q", v)
}

// Configuration holds the configurable WS-DAI properties a consumer may
// set when a new data service / data resource relationship is created
// through a factory (paper §4.2).
type Configuration struct {
	Description           string
	Readable              bool
	Writeable             bool
	TransactionInitiation TransactionInitiation
	TransactionIsolation  string // e.g. "READ COMMITTED"
	Sensitivity           Sensitivity
}

// DefaultConfiguration is the configuration applied when a factory
// request carries no configuration document.
func DefaultConfiguration() Configuration {
	return Configuration{
		Readable:             true,
		Writeable:            false,
		TransactionIsolation: "READ COMMITTED",
	}
}

// Element renders the configuration as a ConfigurationDocument element.
func (c Configuration) Element() *xmlutil.Element {
	e := xmlutil.NewElement(NSDAI, "ConfigurationDocument")
	if c.Description != "" {
		e.AddText(NSDAI, "DataResourceDescription", c.Description)
	}
	e.AddText(NSDAI, "Readable", boolStr(c.Readable))
	e.AddText(NSDAI, "Writeable", boolStr(c.Writeable))
	e.AddText(NSDAI, "TransactionInitiation", c.TransactionInitiation.String())
	if c.TransactionIsolation != "" {
		e.AddText(NSDAI, "TransactionIsolation", c.TransactionIsolation)
	}
	e.AddText(NSDAI, "Sensitivity", c.Sensitivity.String())
	return e
}

// ParseConfiguration decodes a ConfigurationDocument element, applying
// defaults for absent fields. A nil element yields the defaults.
func ParseConfiguration(e *xmlutil.Element) (Configuration, error) {
	c := DefaultConfiguration()
	if e == nil {
		return c, nil
	}
	if v := e.FindText(NSDAI, "DataResourceDescription"); v != "" {
		c.Description = v
	}
	if el := e.Find(NSDAI, "Readable"); el != nil {
		b, err := parseBool(el.Text())
		if err != nil {
			return c, fmt.Errorf("dais: Readable: %w", err)
		}
		c.Readable = b
	}
	if el := e.Find(NSDAI, "Writeable"); el != nil {
		b, err := parseBool(el.Text())
		if err != nil {
			return c, fmt.Errorf("dais: Writeable: %w", err)
		}
		c.Writeable = b
	}
	if el := e.Find(NSDAI, "TransactionInitiation"); el != nil {
		ti, err := ParseTransactionInitiation(el.Text())
		if err != nil {
			return c, err
		}
		c.TransactionInitiation = ti
	}
	if v := e.FindText(NSDAI, "TransactionIsolation"); v != "" {
		c.TransactionIsolation = v
	}
	if el := e.Find(NSDAI, "Sensitivity"); el != nil {
		s, err := ParseSensitivity(el.Text())
		if err != nil {
			return c, err
		}
		c.Sensitivity = s
	}
	return c, nil
}

// ConfigurationMapEntry is one WS-DAI ConfigurationMap property value:
// it "associates an incoming message type with a valid requested access
// interface type and a default set of values for the configuration
// property document" (paper §4.2).
type ConfigurationMapEntry struct {
	// MessageName is the factory message the entry applies to, e.g.
	// "SQLExecuteFactoryRequest".
	MessageName string
	// PortType is the QName (rendered prefix:local) of the access
	// interface the created resource will support.
	PortType string
	// Default is the configuration applied when the request omits one.
	Default Configuration
}

// Element renders the entry as a ConfigurationMap property.
func (m ConfigurationMapEntry) Element() *xmlutil.Element {
	e := xmlutil.NewElement(NSDAI, "ConfigurationMap")
	e.AddText(NSDAI, "MessageName", m.MessageName)
	e.AddText(NSDAI, "PortTypeQName", m.PortType)
	e.AppendChild(m.Default.Element())
	return e
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func parseBool(s string) (bool, error) {
	switch strings.TrimSpace(s) {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("invalid boolean %q", s)
}

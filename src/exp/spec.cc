#include "exp/spec.hh"

#include <charconv>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <type_traits>
#include <variant>

#include "sim/random.hh"

namespace rmb {
namespace exp {

namespace {

std::string
typeError(const std::string &field, const char *want,
          const obs::JsonValue &got)
{
    return "field '" + field + "' expects " + want + ", got " +
           got.kindName() + " " + got.serialize();
}

/**
 * How a field value is spelled and checked.  Each kind has one
 * checker, check(), shared by spec JSON values and rmbsim flag text.
 */
enum class Kind
{
    U32,      //!< non-negative integer <= UINT32_MAX
    U64,      //!< non-negative integer
    Real,     //!< number in (0, 1] (the injection rate)
    Prob,     //!< probability in [0, 1]
    Bool,     //!< true | false
    Enum,     //!< a word, stored as the enumerator of its index
    Suffixed, //!< a word, or a prefix word plus a checked value
    Dims,     //!< grid shape "AxBxC"
};

/** When echo() writes a field: NonDefault for fields added after
 *  baselines were recorded, Never for execution strategy, which is
 *  no part of an experiment's identity. */
enum class Echo { Always, NonDefault, Never };

/** A checked value; an Enum field's is the index of its word. */
using Value = std::variant<std::uint64_t, double, bool, std::string>;

/** A parameterised word of a Suffixed field ("local:" + distance). */
struct Suffix
{
    const char *prefix;
    const char *meta; //!< the value's name in messages
    Kind kind;        //!< U32, U64 or Prob
    std::uint64_t min = 0;
};

/** The words an Enum (in enumerator order) or Suffixed field takes. */
struct Choices
{
    std::vector<std::string> words;
    std::vector<Suffix> suffixes;
};

/** @p c's words and suffix forms, joined by @p sep. */
std::string
listChoices(const Choices &c, const char *sep)
{
    std::string all;
    for (const std::string &w : c.words)
        all += (all.empty() ? "" : sep) + w;
    for (const Suffix &s : c.suffixes)
        all += sep + std::string(s.prefix) + '<' + s.meta + '>';
    return all;
}

/** What @p kind accepts, for error messages. */
std::string
describe(Kind kind, const Choices *c, std::uint64_t min)
{
    const std::string lo = std::to_string(min);
    switch (kind) {
    case Kind::U32:
        return min == 0 ? "a non-negative integer <= 4294967295"
                        : "an integer in [" + lo + ", 4294967295]";
    case Kind::U64:
        return min == 0 ? "a non-negative integer"
                        : "an integer >= " + lo;
    case Kind::Real:
        return "a number in (0, 1]";
    case Kind::Prob:
        return "a probability in [0, 1]";
    case Kind::Bool:
        return "a boolean (true or false)";
    case Kind::Dims:
        return "a grid shape like 4x4x4";
    default:
        return "one of " + listChoices(*c, ", ");
    }
}

/**
 * The checker: read @p text - or @p json, when not null - as
 * @p kind.  Store the value in @p out and return "", or return what
 * @p kind accepts.
 */
std::string
check(Kind kind, const obs::JsonValue *json, std::string_view text,
      Value &out, const Choices *c = nullptr, std::uint64_t min = 0)
{
    if (json != nullptr) {
        // A JSON value must have the kind's JSON type; its text (a
        // number's source token) then takes the flag-text path.
        const bool typed =
            kind == Kind::Bool ? json->isBool()
            : kind == Kind::U32 || kind == Kind::U64 ||
                    kind == Kind::Real || kind == Kind::Prob
                ? json->isNumber()
                : json->isString();
        if (!typed)
            return describe(kind, c, min);
        text = json->isBool()     ? (json->boolean() ? "true" : "false")
               : json->isNumber() ? std::string_view(json->numberToken())
                                  : std::string_view(json->string());
    }
    std::uint64_t u = 0;
    double d = 0.0;
    bool ok = false;
    switch (kind) {
    case Kind::U32:
    case Kind::U64:
        ok = parseUint(text, u) && u >= min &&
             (kind == Kind::U64 || u <= UINT32_MAX);
        out = u;
        break;
    case Kind::Real:
    case Kind::Prob: {
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, d);
        // NaN and the infinities fail the range comparisons.
        ok = ec == std::errc{} && ptr == end &&
             (kind == Kind::Real ? d > 0.0 : d >= 0.0) && d <= 1.0;
        out = d;
        break;
    }
    case Kind::Bool:
        ok = text == "true" || text == "false";
        out = text == "true";
        break;
    case Kind::Dims: {
        std::vector<std::uint32_t> dims;
        ok = parseDims(text, dims);
        out = std::string(text);
        break;
    }
    case Kind::Enum:
    case Kind::Suffixed:
        for (std::size_t i = 0; i < c->words.size(); ++i) {
            if (text != c->words[i])
                continue;
            if (kind == Kind::Enum)
                out = std::uint64_t{i};
            else
                out = std::string(text);
            return "";
        }
        for (const Suffix &s : c->suffixes) {
            const std::size_t len = std::strlen(s.prefix);
            if (text.substr(0, len) != s.prefix)
                continue;
            if (!check(s.kind, nullptr, text.substr(len), out, nullptr,
                       s.min).empty()) {
                return std::string(s.prefix) + '<' + s.meta +
                       "> with " + s.meta + ' ' +
                       describe(s.kind, nullptr, s.min);
            }
            out = std::string(text);
            return "";
        }
        break;
    }
    return ok ? "" : describe(kind, c, min);
}

// A row reaches its slot - a member of the PointConfig or of the
// RmbConfig it embeds - through one get/put pair per member.

template <typename C, typename T> C classOf(T C::*);

template <auto M, typename P>
auto &
member(P &p)
{
    if constexpr (std::is_same_v<decltype(classOf(M)), core::RmbConfig>)
        return p.net.*M;
    else
        return p.*M;
}

/** Value holds these member types as they are; integers and enums
 *  as a uint64. */
template <typename T>
constexpr bool kAsIs = std::is_same_v<T, double> ||
                       std::is_same_v<T, bool> ||
                       std::is_same_v<T, std::string>;

template <auto M>
Value
getMember(const PointConfig &p)
{
    const auto &v = member<M>(p);
    if constexpr (kAsIs<std::decay_t<decltype(v)>>)
        return v;
    else
        return static_cast<std::uint64_t>(v);
}

template <auto M>
void
putMember(PointConfig &p, Value &&v)
{
    auto &slot = member<M>(p);
    using T = std::decay_t<decltype(slot)>;
    if constexpr (kAsIs<T>)
        slot = std::move(std::get<T>(v));
    else
        slot = static_cast<T>(std::get<std::uint64_t>(v));
}

/** blocking spans two RmbConfig fields: "nack", "wait", "wait:<t>". */
Value
getBlocking(const PointConfig &p)
{
    std::string s = core::blockingPolicyName(p.net.blocking);
    if (p.net.headerTimeout > 0)
        s += ':' + std::to_string(p.net.headerTimeout);
    return s;
}

void
putBlocking(PointConfig &p, Value &&v)
{
    const std::string &s = std::get<std::string>(v);
    const std::size_t colon = s.find(':');
    const auto nack = core::BlockingPolicy::NackRetry;
    p.net.blocking = s == core::blockingPolicyName(nack)
                         ? nack
                         : core::BlockingPolicy::Wait;
    p.net.headerTimeout = 0;
    if (colon != std::string::npos)
        parseUint(std::string_view(s).substr(colon + 1),
                  p.net.headerTimeout);
}

/** One row of the field table. */
struct Field
{
    const char *name;
    Kind kind;
    Value (*get)(const PointConfig &);
    void (*put)(PointConfig &, Value &&);
    const char *help;
    Echo echo;
    const Choices *choices;
    bool sweepOnly; //!< no rmbsim flag
};

template <auto M>
Field
row(const char *name, Kind kind, const char *help,
    const Choices *choices = nullptr, Echo echo = Echo::Always,
    bool sweep_only = false)
{
    return {name,  kind, &getMember<M>, &putMember<M>,
            help, echo, choices,       sweep_only};
}

const Choices kNetworks{{"rmb", "dualring", "torus", "grid", "ring",
                         "mesh", "hypercube", "ehc", "fattree",
                         "multibus", "wormhole"},
                        {}};
const Choices kWorkloads{{"randperm", "bitrev", "shuffle", "transpose",
                          "tornado", "uniform"},
                         {{"rot:", "s", Kind::U32},
                          {"hrel:", "h", Kind::U32, 1},
                          {"local:", "d", Kind::U32, 1},
                          {"hotspot:", "f", Kind::Prob}}};
const Choices kEngines{{core::engineKindName(core::EngineKind::Event),
                        core::engineKindName(core::EngineKind::Kernel)},
                       {}};
const Choices kTopologies{
    {core::topologyKindName(core::TopologyKind::Flat),
     core::topologyKindName(core::TopologyKind::Hier)},
    {}};
const Choices kHeaders{
    {core::headerPolicyName(core::HeaderPolicy::PreferLowest),
     core::headerPolicyName(core::HeaderPolicy::PreferStraight)},
    {}};
const Choices kBlocking{
    {core::blockingPolicyName(core::BlockingPolicy::NackRetry),
     core::blockingPolicyName(core::BlockingPolicy::Wait)},
    {{"wait:", "t", Kind::U64}}};

using C = core::RmbConfig;
using P = PointConfig;
constexpr Echo kIfSet = Echo::NonDefault;

/** The field table: every settable field, once, in echo order. */
const std::vector<Field> &
table()
{
    static const std::vector<Field> rows = {
        row<&P::network>("network", Kind::Suffixed, "network to simulate",
                         &kNetworks),
        row<&C::numNodes>("nodes", Kind::U32, "ring nodes N"),
        row<&C::numBuses>("buses", Kind::U32, "bus levels k per gap"),
        row<&P::width>("width", Kind::U32, "torus / mesh width"),
        row<&P::height>("height", Kind::U32, "torus / mesh height"),
        row<&P::dims>("dims", Kind::Dims, "grid: ring size per dimension",
                      nullptr, kIfSet),
        row<&P::workload>("workload", Kind::Suffixed,
                          "batch permutation or stochastic pattern",
                          &kWorkloads),
        row<&P::rate>("rate", Kind::Real, "messages per node per tick"),
        row<&P::payload>("payload", Kind::U32, "data flits per message"),
        row<&P::duration>("duration", Kind::U64,
                          "stochastic generation window, ticks"),
        row<&P::timeout>("timeout", Kind::U64,
                         "tick budget (batch) or drain bound"),
        row<&C::enableCompaction>("compaction", Kind::Bool,
                                  "run the compaction protocol"),
        row<&C::engine>("engine", Kind::Enum, "RMB backend", &kEngines),
        row<&C::topology>("topology", Kind::Enum,
                          "one ring, or rings behind bridges",
                          &kTopologies),
        row<&C::localRings>("local_rings", Kind::U32,
                            "hier: local ring count"),
        row<&C::globalBuses>("global_buses", Kind::U32,
                             "hier: global ring levels, 0 = buses"),
        row<&C::bridgeLatency>("bridge_latency", Kind::U64,
                               "hier: ticks per bridge hop"),
        row<&C::bridgeBuffer>("bridge_buffer", Kind::U32,
                              "hier: slots per bridge"),
        row<&C::shardJobs>("shard_jobs", Kind::U32,
                           "hier: threads, 0 = auto; result-neutral",
                           nullptr, Echo::Never),
        {"blocking", Kind::Suffixed, &getBlocking, &putBlocking,
         "blocked header: retry, or hold (t: timeout)", Echo::Always,
         &kBlocking, false},
        row<&C::headerPolicy>("header", Kind::Enum,
                              "level an advancing header prefers",
                              &kHeaders),
        row<&C::sendPorts>("send_ports", Kind::U32, "sends per PE"),
        row<&C::receivePorts>("receive_ports", Kind::U32,
                              "receives per PE"),
        row<&C::detailedFlits>("detailed_flits", Kind::Bool,
                               "per-flit Dack flow control"),
        row<&C::faultMtbf>("fault_mtbf", Kind::U64,
                           "mean ticks between faults, 0 = none"),
        row<&C::faultMttrMin>("fault_mttr_min", Kind::U64,
                              "shortest repair delay"),
        row<&C::faultMttrMax>("fault_mttr_max", Kind::U64,
                              "longest repair delay"),
        row<&C::faultPermanentProb>("fault_permanent_prob", Kind::Prob,
                                    "chance a fault never repairs",
                                    nullptr, kIfSet),
        row<&C::faultNodeProb>("fault_node_prob", Kind::Prob,
                               "chance a fault takes a whole node",
                               nullptr, kIfSet),
        row<&C::faultBridgeProb>("fault_bridge_prob", Kind::Prob,
                                 "hier: chance a fault takes a bridge",
                                 nullptr, kIfSet),
        row<&C::watchdogTimeout>("watchdog", Kind::U64,
                                 "supervisor timeout, 0 = off"),
        row<&C::maxRetries>("max_retries", Kind::U32,
                            "retries per message, 0 = unlimited"),
        // rmbsim has its own --timeline, with other semantics.
        row<&P::timelinePeriod>("timeline_period", Kind::U64,
                                "per-point timeline period, 0 = off",
                                nullptr, kIfSet, true),
    };
    return rows;
}

/** The row named @p name; if none, an error listing every row. */
const Field *
find(const std::string &name, std::string &error)
{
    for (const Field &f : table())
        if (name == f.name)
            return &f;
    std::string known;
    for (const Field &f : table())
        known += (known.empty() ? "" : ", ") + std::string(f.name);
    error = "unknown field '" + name + "' (known fields: " + known + ")";
    return nullptr;
}

/** @p v in setText() spelling. */
std::string
spell(const Field &f, const Value &v)
{
    if (f.kind == Kind::Enum)
        return f.choices->words[std::get<std::uint64_t>(v)];
    std::ostringstream out;
    out << std::boolalpha;
    std::visit([&](const auto &x) { out << x; }, v);
    return out.str();
}

/** set() and setText(): check the value, then store it. */
std::string
assign(PointConfig &p, const std::string &field,
       const obs::JsonValue *json, std::string_view text)
{
    std::string error;
    const Field *f = find(field, error);
    if (f == nullptr)
        return error;
    Value v;
    const std::string want = check(f->kind, json, text, v, f->choices);
    if (want.empty())
        f->put(p, std::move(v));
    else if (json != nullptr)
        return typeError(field, want.c_str(), *json);
    else
        return "expects " + want + ", got '" + std::string(text) + "'";
    return "";
}

} // namespace

bool
parseUint(std::string_view text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

bool
parseDims(std::string_view text, std::vector<std::uint32_t> &dims)
{
    dims.clear();
    for (;;) {
        const std::size_t x = text.find('x');
        std::uint64_t d = 0;
        if (!parseUint(text.substr(0, x), d) || d > UINT32_MAX)
            return false;
        dims.push_back(static_cast<std::uint32_t>(d));
        if (x == std::string_view::npos)
            return true;
        text.remove_prefix(x + 1);
    }
}

std::string
PointConfig::set(const std::string &field, const obs::JsonValue &value)
{
    return assign(*this, field, &value, {});
}

std::string
PointConfig::setText(const std::string &field, std::string_view text)
{
    return assign(*this, field, nullptr, text);
}

std::string
PointConfig::text(const std::string &field) const
{
    std::string error;
    const Field *f = find(field, error);
    return f == nullptr ? error : spell(*f, f->get(*this));
}

void
PointConfig::echo(obs::JsonWriter &json) const
{
    static const PointConfig defaults;
    for (const Field &f : table()) {
        const Value v = f.get(*this);
        if (f.echo == Echo::Never ||
            (f.echo == Echo::NonDefault && v == f.get(defaults)))
            continue;
        if (f.kind == Kind::Enum)
            json.field(f.name, spell(f, v));
        else
            std::visit([&](const auto &x) { json.field(f.name, x); }, v);
    }
}

const std::vector<FieldInfo> &
PointConfig::knownFields()
{
    static const std::vector<FieldInfo> fields = [] {
        std::vector<FieldInfo> out;
        for (const Field &f : table()) {
            std::string value = f.kind == Kind::Bool ? "true|false"
                                : f.kind == Kind::Dims ? "AxBxC"
                                : f.kind == Kind::Real ||
                                        f.kind == Kind::Prob
                                    ? "P"
                                    : "N";
            if (f.choices != nullptr)
                value = listChoices(*f.choices, "|");
            out.push_back({f.name, value, f.help, f.sweepOnly});
        }
        return out;
    }();
    return fields;
}

bool
SweepSpec::fromJson(const std::string &text, SweepSpec &out,
                    std::vector<std::string> &errors)
{
    out = SweepSpec();
    obs::JsonValue doc;
    std::string parse_error;
    if (!obs::jsonParse(text, doc, parse_error)) {
        errors.push_back("spec is not valid JSON: " + parse_error);
        return false;
    }
    if (!doc.isObject()) {
        errors.push_back("spec must be a JSON object, got " +
                         std::string(doc.kindName()));
        return false;
    }

    for (const auto &[key, value] : doc.members()) {
        if (key == "name") {
            if (!value.isString()) {
                errors.push_back(typeError("name", "a string", value));
                continue;
            }
            out.name_ = value.string();
        } else if (key == "mode") {
            if (value.isString() && value.string() == "cartesian") {
                out.mode_ = SweepMode::Cartesian;
            } else if (value.isString() && value.string() == "zip") {
                out.mode_ = SweepMode::Zip;
            } else {
                errors.push_back(
                    "field 'mode' expects \"cartesian\" or \"zip\","
                    " got " +
                    value.serialize());
            }
        } else if (key == "seed") {
            if (!value.asUint64(out.masterSeed_)) {
                errors.push_back(typeError(
                    "seed", "a non-negative integer", value));
            }
        } else if (key == "base") {
            if (!value.isObject()) {
                errors.push_back(
                    typeError("base", "an object", value));
                continue;
            }
            for (const auto &[field, fv] : value.members()) {
                const std::string err = out.base_.set(field, fv);
                if (!err.empty())
                    errors.push_back("base: " + err);
            }
        } else if (key == "axes") {
            if (!value.isArray()) {
                errors.push_back(
                    typeError("axes", "an array", value));
                continue;
            }
            for (std::size_t i = 0; i < value.array().size(); ++i) {
                const obs::JsonValue &av = value.array()[i];
                const std::string where =
                    "axes[" + std::to_string(i) + "]";
                if (!av.isObject()) {
                    errors.push_back(where + " must be an object"
                                             " {\"field\", \"values\"}");
                    continue;
                }
                Axis axis;
                const obs::JsonValue *field = av.find("field");
                const obs::JsonValue *values = av.find("values");
                if (field == nullptr || !field->isString()) {
                    errors.push_back(where +
                                     " needs a string 'field'");
                    continue;
                }
                axis.field = field->string();
                if (values == nullptr || !values->isArray() ||
                    values->array().empty()) {
                    errors.push_back(
                        where + " ('" + axis.field +
                        "') needs a non-empty 'values' array");
                    continue;
                }
                axis.values = values->array();
                out.axes_.push_back(std::move(axis));
            }
        } else {
            errors.push_back(
                "unknown spec key '" + key +
                "' (known keys: name, mode, seed, base, axes)");
        }
    }

    // Semantic checks over the assembled spec.
    std::set<std::string> seen;
    for (const Axis &axis : out.axes_) {
        if (!seen.insert(axis.field).second) {
            errors.push_back("axis field '" + axis.field +
                             "' appears more than once");
        }
        for (const obs::JsonValue &v : axis.values) {
            PointConfig probe = out.base_;
            const std::string err = probe.set(axis.field, v);
            if (!err.empty())
                errors.push_back("axis '" + axis.field +
                                 "': " + err);
        }
    }
    if (out.mode_ == SweepMode::Zip && !out.axes_.empty()) {
        const std::size_t len = out.axes_.front().values.size();
        for (const Axis &axis : out.axes_) {
            if (axis.values.size() != len) {
                errors.push_back(
                    "zip mode needs equal-length axes, but '" +
                    out.axes_.front().field + "' has " +
                    std::to_string(len) + " values and '" +
                    axis.field + "' has " +
                    std::to_string(axis.values.size()));
            }
        }
    }
    return errors.empty();
}

bool
SweepSpec::fromFile(const std::string &path, SweepSpec &out,
                    std::vector<std::string> &errors)
{
    std::ifstream in(path);
    if (!in) {
        errors.push_back("cannot open spec file '" + path + "'");
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return fromJson(text.str(), out, errors);
}

std::size_t
SweepSpec::pointCount() const
{
    if (axes_.empty())
        return 1;
    if (mode_ == SweepMode::Zip)
        return axes_.front().values.size();
    std::size_t n = 1;
    for (const Axis &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<PointConfig>
SweepSpec::points() const
{
    const std::size_t count = pointCount();
    std::vector<PointConfig> points;
    points.reserve(count);
    const sim::Random root(masterSeed_);

    for (std::size_t i = 0; i < count; ++i) {
        PointConfig pt = base_;
        pt.index = i;
        // Decompose i into one index per axis: cartesian treats the
        // last axis as the fastest-varying digit, zip uses i for all.
        std::size_t rest = i;
        std::vector<std::size_t> choice(axes_.size(), i);
        if (mode_ == SweepMode::Cartesian) {
            for (std::size_t a = axes_.size(); a-- > 0;) {
                choice[a] = rest % axes_[a].values.size();
                rest /= axes_[a].values.size();
            }
        }
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const obs::JsonValue &v = axes_[a].values[choice[a]];
            const std::string err = pt.set(axes_[a].field, v);
            // fromJson probed every axis value against the base, so
            // this cannot fail for a validated spec.
            if (!err.empty())
                continue;
            pt.params.emplace_back(axes_[a].field, v.serialize());
            if (!pt.label.empty())
                pt.label += ',';
            pt.label += axes_[a].field + '=' +
                        (v.isString() ? v.string() : v.serialize());
        }
        // One SplitMix64-derived seed per grid index, a pure
        // function of (masterSeed, index) - independent of job
        // count, completion order and which subset of points runs.
        pt.seed = root.split(i).next();
        points.push_back(std::move(pt));
    }
    return points;
}

std::string
SweepSpec::canonicalJson() const
{
    obs::JsonWriter json;
    json.beginObject();
    json.field("name", name_);
    json.field("mode", mode_ == SweepMode::Zip
                           ? std::string("zip")
                           : std::string("cartesian"));
    json.field("seed", masterSeed_);
    json.beginObject("base");
    base_.echo(json);
    json.endObject();
    json.beginArray("axes");
    for (const Axis &axis : axes_) {
        json.beginObject();
        json.field("field", axis.field);
        json.beginArray("values");
        for (const obs::JsonValue &v : axis.values)
            json.elementRaw(v.serialize());
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace exp
} // namespace rmb

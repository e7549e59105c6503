/**
 * @file
 * Declarative sweep specifications.
 *
 * A SweepSpec describes a grid of independent simulator
 * configurations - the shape behind every figure of the paper
 * (saturation curves, k-sweeps, ablations): a base point, a list of
 * axes over its fields, and a combination mode (cartesian product or
 * zipped tuples).  Specs load from JSON (see docs/SWEEPS.md for the
 * schema) and validate with one actionable message per problem, in
 * the style of RmbConfig::validate().
 *
 * Each materialised PointConfig carries its own seed, derived from
 * the spec's master seed with sim::Random::split(index), so any
 * subset of points can be re-run in any order - or on any number of
 * worker threads - without changing a single result.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hh"
#include "obs/json_value.hh"
#include "rmb/config.hh"
#include "sim/types.hh"

namespace rmb {
namespace exp {

/** What rmbsim --help and error messages say about one field. */
struct FieldInfo
{
    std::string name;  //!< spec key; rmbsim's flag is --name, '_' as '-'
    std::string value; //!< the accepted values, e.g. "N" or "flat|hier"
    std::string help;  //!< one line of documentation
    bool sweepOnly;    //!< no rmbsim flag (timeline_period)
};

/**
 * One run recipe: a complete, self-contained simulation - a sweep's
 * grid point, or one rmbsim invocation.  Every settable field is one
 * row of the field table in spec.cc, which holds its name, kind,
 * help text and echo rule; the table drives set(), the canonical
 * echo, and rmbsim's flags, --help and config digest.
 */
struct PointConfig
{
    /** Position in the materialised grid (stable output order). */
    std::size_t index = 0;

    /** Human-readable "field=value" summary of the axis choices. */
    std::string label;

    /** Per-point seed (a sweep splits it from the master seed). */
    std::uint64_t seed = 1;

    /**
     * Every RMB-backed field, declared once with its default in
     * rmb/config.hh: geometry, ports, compaction, engine, topology,
     * hierarchy, blocking, header policy, faults and supervisor.  The
     * network factory (exp/eval.hh) sets its seed, verify level and
     * transientFaults.
     */
    core::RmbConfig net;

    std::string network = "rmb";
    std::uint32_t width = 4;    //!< torus / mesh only
    std::uint32_t height = 4;   //!< torus / mesh only
    std::string dims = "4x4x4"; //!< grid only: ring size per dimension

    std::string workload = "randperm";
    double rate = 0.001;          //!< stochastic workloads
    std::uint32_t payload = 32;   //!< data flits per message
    sim::Tick duration = 50'000;  //!< stochastic generation window

    /**
     * Simulated-tick budget: batch workloads abort (point marked
     * incomplete, sweep continues) after this many ticks; stochastic
     * workloads use it as the post-generation drain bound.  This is
     * what keeps one diverging configuration from hanging a sweep.
     */
    sim::Tick timeout = 10'000'000;

    /**
     * Sample a per-point timeline every this many ticks (0 = off).
     * Samples ride the point's own event queue, so the series is a
     * pure function of the point config and seed - byte-identical
     * for any --jobs - and lands in the report's point object as a
     * "timeline" member (docs/SWEEPS.md).
     */
    sim::Tick timelinePeriod = 0;

    /** Axis assignments applied to this point, in axis order, as
     *  (field, serialised JSON value) - for report "params". */
    std::vector<std::pair<std::string, std::string>> params;

    /**
     * Assign the spec JSON @p value to the field named @p field.
     * @return empty string on success, else one actionable error
     * ("unknown field", "expects a number", ...).
     */
    std::string set(const std::string &field,
                    const obs::JsonValue &value);

    /**
     * Assign the flag text @p text (rmbsim spelling: "16", "kernel",
     * "true") through the same checker as set().  @return empty on
     * success, else "expects <what>, got '<text>'".
     */
    std::string setText(const std::string &field,
                        std::string_view text);

    /** The current value of @p field in setText() spelling. */
    std::string text(const std::string &field) const;

    /**
     * Write every field as members of @p json's open object, in
     * table order, following each row's echo rule (shard_jobs never;
     * the fault probabilities, dims and timeline_period only when
     * they differ from the default, so older specs keep their bytes).
     */
    void echo(obs::JsonWriter &json) const;

    /** Every row of the field table, in table order. */
    static const std::vector<FieldInfo> &knownFields();
};

/**
 * Strict decimal: all of @p text is one non-negative integer that
 * fits a uint64 - no sign, space, junk or overflow.
 */
bool parseUint(std::string_view text, std::uint64_t &out);

/**
 * Parse a grid shape "AxBxC" into @p dims (one ring size per
 * dimension).  @return false on empty parts, junk or overflow.
 */
bool parseDims(std::string_view text, std::vector<std::uint32_t> &dims);

/** One swept dimension: a field name and its candidate values. */
struct Axis
{
    std::string field;
    std::vector<obs::JsonValue> values;
};

/** How axes combine into grid points. */
enum class SweepMode
{
    Cartesian, //!< every combination; last axis varies fastest
    Zip,       //!< i-th values of all axes together (equal lengths)
};

/** A declarative sweep: base point + axes + combination mode. */
class SweepSpec
{
  public:
    /**
     * Parse @p text.  @return true and fill @p out on success; on
     * failure @p errors gets one actionable message per problem
     * (syntax, unknown fields, zip length mismatch, ...).
     */
    static bool fromJson(const std::string &text, SweepSpec &out,
                         std::vector<std::string> &errors);

    /** fromJson() over the contents of @p path. */
    static bool fromFile(const std::string &path, SweepSpec &out,
                         std::vector<std::string> &errors);

    const std::string &name() const { return name_; }
    SweepMode mode() const { return mode_; }
    std::uint64_t masterSeed() const { return masterSeed_; }
    const PointConfig &base() const { return base_; }
    const std::vector<Axis> &axes() const { return axes_; }

    /** Override the master seed (CLI --seed). */
    void setMasterSeed(std::uint64_t seed) { masterSeed_ = seed; }

    /** Number of points the spec materialises to. */
    std::size_t pointCount() const;

    /**
     * Materialise the grid: apply each axis combination to a copy of
     * the base point, label it, and split its seed from the master
     * seed.  Points come back in stable grid order.
     */
    std::vector<PointConfig> points() const;

    /** Compact canonical serialisation (embedded in reports so a
     *  sweep artifact is self-describing). */
    std::string canonicalJson() const;

  private:
    std::string name_ = "sweep";
    SweepMode mode_ = SweepMode::Cartesian;
    std::uint64_t masterSeed_ = 1;
    PointConfig base_;
    std::vector<Axis> axes_;
};

} // namespace exp
} // namespace rmb

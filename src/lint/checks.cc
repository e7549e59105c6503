#include "lint/checks.hh"

#include <algorithm>
#include <functional>
#include <map>

#include "obs/json.hh"
#include "obs/json_value.hh"

namespace rmb {
namespace lint {

namespace {

// ---------------------------------------------------------------
// Registry metadata
// ---------------------------------------------------------------

struct CheckInfo
{
    const char *name;
    const char *description;
};

const CheckInfo kChecks[] = {
    {"determinism-hazard",
     "unordered-container iteration, wall clock, libc RNG and "
     "pointer-order constructs that can leak host state into "
     "reports"},
    {"layering",
     "module-DAG violations and include cycles in the "
     "common->sim->obs->netbase->{rmb,baselines,workload}->"
     "{check,exp,report,...}->tools graph"},
    {"env-hook",
     "std::getenv outside common/env.cc, unregistered mutation "
     "hooks, envFlag reads from library code"},
    {"metric-name",
     "metric literals off the rmb.*/hier.*/net.*/shard<i>.* "
     "conventions, or registered at more than one call site"},
    {"header-guard",
     "headers that lack #pragma once or still carry an #ifndef "
     "guard"},
};

/**
 * The module DAG: which modules each module may #include.  "*" =
 * leaf consumers (tools/bench/tests/examples) that may use
 * everything.  Mirrors docs/LINT.md; change both together.
 */
const std::map<std::string, std::set<std::string>> &
allowedImports()
{
    static const std::map<std::string, std::set<std::string>> dag = {
        {"common", {}},
        {"sim", {"common"}},
        {"obs", {"common", "sim"}},
        {"netbase", {"common", "sim", "obs"}},
        {"analysis", {"common"}},
        {"workload", {"common", "sim", "obs", "netbase"}},
        {"baselines", {"common", "sim", "obs", "netbase"}},
        {"rmb", {"common", "sim", "obs", "netbase"}},
        {"check", {"common", "sim", "obs", "netbase", "rmb"}},
        {"offline", {"common", "sim", "obs", "netbase", "workload"}},
        {"report", {"common", "sim", "obs", "netbase", "rmb"}},
        {"exp",
         {"common", "sim", "obs", "netbase", "workload", "baselines",
          "rmb"}},
        {"lint", {"common", "sim", "obs"}},
        {"tools", {"*"}},
        {"bench", {"*"}},
        {"tests", {"*"}},
        {"examples", {"*"}},
    };
    return dag;
}

/** Mirror of common::kMutationHooks (see common/env.hh). */
const std::set<std::string> &
registeredHooks()
{
    static const std::set<std::string> hooks = {
        "RMB_KERNEL_MUTATE",
        "RMB_HIER_MUTATE",
        "RMB_DEGRADE_MUTATE",
        "RMB_POOL_RELOCATE",
    };
    return hooks;
}

// ---------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

/** Angle-bracket depth delta of one punctuator ('<' opens, '>'
 *  closes; ">>" closes twice - the C++11 template-closer rule). */
int
angleDelta(const Token &t)
{
    if (t.kind != TokKind::Punct)
        return 0;
    int d = 0;
    for (char c : t.text) {
        if (c == '<')
            ++d;
        else if (c == '>')
            --d;
    }
    return d;
}

/**
 * @p open indexes a '<' token; return the index one past its
 * matching '>', or npos when the expression is not a balanced
 * template-argument list (e.g. operator<).
 */
std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Punct &&
            (t.text == ";" || t.text == "{" || t.text == "}"))
            return std::string::npos;
        depth += angleDelta(t);
        if (depth <= 0)
            return i + 1;
    }
    return std::string::npos;
}

/** @p open indexes a '(' token; return the index of its matching
 *  ')', or npos. */
std::size_t
matchParen(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct)
            continue;
        if (toks[i].text == "(")
            ++depth;
        else if (toks[i].text == ")" && --depth == 0)
            return i;
    }
    return std::string::npos;
}

bool
lowerWord(const std::string &s)
{
    if (s.empty())
        return false;
    bool word_start = true;
    for (char c : s) {
        if (c == '.') {
            if (word_start)
                return false; // empty segment
            word_start = true;
            continue;
        }
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
        if (word_start && !(c >= 'a' && c <= 'z'))
            return false;
        word_start = false;
    }
    return !word_start;
}

bool
validMetricName(const std::string &s)
{
    for (const char *prefix : {"rmb.", "hier.", "net."}) {
        const std::string p = prefix;
        if (s.size() > p.size() && s.compare(0, p.size(), p) == 0)
            return lowerWord(s.substr(p.size()));
    }
    // shard<i>.<rest>: the per-shard telemetry family.
    if (s.compare(0, 5, "shard") == 0) {
        std::size_t i = 5;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9')
            ++i;
        if (i > 5 && i < s.size() && s[i] == '.')
            return lowerWord(s.substr(i + 1));
    }
    return false;
}

bool
validHookName(const std::string &s)
{
    if (s.compare(0, 4, "RMB_") != 0)
        return false;
    for (char c : s) {
        if (!((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_'))
            return false;
    }
    return true;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    const std::string p = prefix;
    return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

using Emit = std::function<void(const SourceFile &, int,
                                const std::string &)>;

// ---------------------------------------------------------------
// determinism-hazard
// ---------------------------------------------------------------

/**
 * Collect names declared with an unordered type in @p f:
 * `std::unordered_map<...> name` (members, locals, parameters).
 * Type aliases and uses through typedefs are out of scope - the
 * repo's style declares unordered state literally, and the lint
 * prefers a false negative over guessing through aliases.
 */
void
collectUnorderedNames(const SourceFile &f,
                      std::set<std::string> &names)
{
    const auto &toks = f.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "unordered_map") &&
            !isIdent(toks[i], "unordered_set"))
            continue;
        if (i + 1 >= toks.size() || toks[i + 1].text != "<")
            continue;
        std::size_t j = skipAngles(toks, i + 1);
        if (j == std::string::npos)
            continue;
        while (j < toks.size() && toks[j].kind == TokKind::Punct &&
               (toks[j].text == "*" || toks[j].text == "&"))
            ++j;
        if (j < toks.size() &&
            toks[j].kind == TokKind::Identifier &&
            toks[j].text != "const")
            names.insert(toks[j].text);
    }
}

void
checkDeterminism(const std::vector<SourceFile> &files,
                 const Emit &emit)
{
    // Unordered declarations pair across the header/impl boundary
    // by stem: a member declared in network.hh is hazardous when
    // iterated from network.cc.
    std::map<std::string, std::set<std::string>> by_stem;
    for (const SourceFile &f : files)
        collectUnorderedNames(f, by_stem[f.stem]);

    for (const SourceFile &f : files) {
        const std::set<std::string> &hazard = by_stem[f.stem];
        const auto &toks = f.lex.tokens;
        const bool prof_exempt =
            startsWith(f.path, "src/obs/prof.");
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            // Range-for over an unordered member/local.
            if (isIdent(t, "for") && i + 1 < toks.size() &&
                toks[i + 1].text == "(") {
                const std::size_t close = matchParen(toks, i + 1);
                if (close == std::string::npos)
                    continue;
                std::size_t colon = std::string::npos;
                int depth = 0;
                for (std::size_t j = i + 1; j < close; ++j) {
                    if (toks[j].kind != TokKind::Punct)
                        continue;
                    if (toks[j].text == "(")
                        ++depth;
                    else if (toks[j].text == ")")
                        --depth;
                    else if (toks[j].text == ":" && depth == 1) {
                        colon = j;
                        break;
                    }
                }
                if (colon == std::string::npos)
                    continue;
                // Last identifier of the range expression that is
                // not a call (calls are unresolvable statically).
                std::size_t last = std::string::npos;
                for (std::size_t j = colon + 1; j < close; ++j)
                    if (toks[j].kind == TokKind::Identifier)
                        last = j;
                if (last == std::string::npos ||
                    (last + 1 < toks.size() &&
                     toks[last + 1].text == "("))
                    continue;
                if (hazard.count(toks[last].text) != 0) {
                    emit(f, t.line,
                         "range-for over unordered container '" +
                             toks[last].text +
                             "': iteration order is "
                             "hash/libstdc++-dependent; drain into "
                             "an ordered structure or re-sort");
                }
                continue;
            }
            // Explicit iterator traversal of an unordered name.
            if (t.kind == TokKind::Identifier &&
                hazard.count(t.text) != 0 && i + 2 < toks.size() &&
                (toks[i + 1].text == "." ||
                 toks[i + 1].text == "->") &&
                (isIdent(toks[i + 2], "begin") ||
                 isIdent(toks[i + 2], "cbegin") ||
                 isIdent(toks[i + 2], "rbegin") ||
                 isIdent(toks[i + 2], "crbegin"))) {
                emit(f, t.line,
                     "iterator traversal of unordered container '" +
                         t.text + "' (" + toks[i + 2].text +
                         "()): iteration order is "
                         "hash/libstdc++-dependent");
                continue;
            }
            if (prof_exempt)
                continue;
            // Wall clock and libc RNG.
            if (isIdent(t, "system_clock")) {
                emit(f, t.line,
                     "std::chrono::system_clock is wall-clock host "
                     "state; only src/obs/prof.* may read host "
                     "time");
                continue;
            }
            if ((isIdent(t, "time") || isIdent(t, "rand") ||
                 isIdent(t, "srand")) &&
                i + 1 < toks.size() && toks[i + 1].text == "(" &&
                (i == 0 || (toks[i - 1].text != "." &&
                            toks[i - 1].text != "->"))) {
                emit(f, t.line,
                     "libc '" + t.text +
                         "()' is nondeterministic host state; use "
                         "sim::Random substreams");
                continue;
            }
            // Pointer-keyed std::hash specialisation/use.
            if (isIdent(t, "hash") && i >= 1 &&
                toks[i - 1].text == "::" && i + 1 < toks.size() &&
                toks[i + 1].text == "<") {
                const std::size_t end = skipAngles(toks, i + 1);
                if (end == std::string::npos)
                    continue;
                for (std::size_t j = i + 1; j + 1 < end; ++j) {
                    if (toks[j].kind == TokKind::Punct &&
                        toks[j].text == "*") {
                        emit(f, t.line,
                             "pointer-keyed std::hash: addresses "
                             "vary run to run; key on a stable id");
                        break;
                    }
                }
                continue;
            }
            // std::sort with a pointer-comparing lambda.
            if (isIdent(t, "sort") && i + 1 < toks.size() &&
                toks[i + 1].text == "(") {
                const std::size_t close = matchParen(toks, i + 1);
                if (close == std::string::npos)
                    continue;
                for (std::size_t j = i + 1; j < close; ++j) {
                    if (toks[j].text != "]" ||
                        j + 1 >= close ||
                        toks[j + 1].text != "(")
                        continue;
                    const std::size_t pe =
                        matchParen(toks, j + 1);
                    if (pe == std::string::npos || pe > close)
                        break;
                    for (std::size_t p = j + 2; p < pe; ++p) {
                        if (toks[p].kind == TokKind::Punct &&
                            toks[p].text == "*") {
                            emit(f, t.line,
                                 "std::sort comparator over "
                                 "pointers: address order varies "
                                 "run to run; compare stable ids");
                            break;
                        }
                    }
                    break;
                }
                continue;
            }
        }
    }
}

// ---------------------------------------------------------------
// layering
// ---------------------------------------------------------------

/** Module a quoted include resolves to, or "" when it is relative /
 *  external and exempt from the DAG. */
std::string
includeTargetModule(const std::string &inc)
{
    const std::size_t slash = inc.find('/');
    if (slash == std::string::npos)
        return ""; // same-directory include
    const std::string top = inc.substr(0, slash);
    const auto &dag = allowedImports();
    const auto it = dag.find(top);
    if (it == dag.end() || it->second.count("*") != 0)
        return ""; // unknown or leaf (never an include target)
    return top;
}

void
checkLayering(const std::vector<SourceFile> &files, const Emit &emit)
{
    const auto &dag = allowedImports();

    // Direct module-rule violations.
    for (const SourceFile &f : files) {
        const auto mod = dag.find(f.module);
        if (mod == dag.end())
            continue;
        const bool leaf = mod->second.count("*") != 0;
        for (const IncludeDirective &inc : f.lex.includes) {
            if (inc.angled)
                continue;
            const std::string tgt = includeTargetModule(inc.path);
            if (tgt.empty() || tgt == f.module || leaf)
                continue;
            if (mod->second.count(tgt) == 0) {
                std::string allowed;
                for (const std::string &a : mod->second)
                    allowed += (allowed.empty() ? "" : ", ") + a;
                emit(f, inc.line,
                     "module '" + f.module +
                         "' may not include '" + inc.path +
                         "' (module '" + tgt +
                         "'); its layer imports only: " +
                         (allowed.empty() ? "(nothing)" : allowed));
            }
        }
    }

    // File-level include cycles, reported with the full chain.
    std::map<std::string, const SourceFile *> by_path;
    for (const SourceFile &f : files)
        by_path[f.path] = &f;
    std::map<std::string, std::vector<std::string>> graph;
    for (const SourceFile &f : files) {
        for (const IncludeDirective &inc : f.lex.includes) {
            if (inc.angled)
                continue;
            std::string resolved;
            if (by_path.count("src/" + inc.path) != 0) {
                resolved = "src/" + inc.path;
            } else {
                const std::size_t slash = f.path.find_last_of('/');
                const std::string sibling =
                    (slash == std::string::npos
                         ? inc.path
                         : f.path.substr(0, slash + 1) + inc.path);
                if (by_path.count(sibling) != 0)
                    resolved = sibling;
            }
            if (!resolved.empty() && resolved != f.path)
                graph[f.path].push_back(resolved);
        }
    }
    // Iterative DFS; 0 = unvisited, 1 = on stack, 2 = done.
    std::map<std::string, int> color;
    std::set<std::string> reported;
    std::function<void(const std::string &,
                       std::vector<std::string> &)>
        dfs = [&](const std::string &v,
                  std::vector<std::string> &stack) {
            color[v] = 1;
            stack.push_back(v);
            for (const std::string &w : graph[v]) {
                if (color[w] == 1) {
                    // Found a cycle: slice the chain from w.
                    std::string chain;
                    bool in = false;
                    std::string cycle_key;
                    for (const std::string &s : stack) {
                        if (s == w)
                            in = true;
                        if (!in)
                            continue;
                        chain += s + " -> ";
                        cycle_key =
                            std::max(cycle_key, s); // canonical rep
                    }
                    chain += w;
                    if (reported.insert(cycle_key).second) {
                        const SourceFile *site = by_path[v];
                        emit(*site, 1,
                             "include cycle: " + chain);
                    }
                } else if (color[w] == 0) {
                    dfs(w, stack);
                }
            }
            stack.pop_back();
            color[v] = 2;
        };
    for (const SourceFile &f : files) {
        if (color[f.path] == 0) {
            std::vector<std::string> stack;
            dfs(f.path, stack);
        }
    }
}

// ---------------------------------------------------------------
// env-hook
// ---------------------------------------------------------------

void
checkEnvHooks(const std::vector<SourceFile> &files, const Emit &emit)
{
    for (const SourceFile &f : files) {
        const bool env_impl = f.path == "src/common/env.cc" ||
                              f.path == "src/common/env.hh";
        const auto &toks = f.lex.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (isIdent(t, "getenv") && !env_impl) {
                emit(f, t.line,
                     "std::getenv outside common/env.cc: "
                     "environment reads are determinism leaks; go "
                     "through common::mutationHook or "
                     "common::envFlag");
                continue;
            }
            if (env_impl)
                continue;
            if (isIdent(t, "mutationHook") &&
                i + 1 < toks.size() && toks[i + 1].text == "(") {
                if (i + 2 >= toks.size() ||
                    toks[i + 2].kind != TokKind::String) {
                    emit(f, t.line,
                         "mutationHook with a non-literal name: "
                         "hooks must be auditable string literals");
                } else if (registeredHooks().count(
                               toks[i + 2].text) == 0) {
                    emit(f, t.line,
                         "mutationHook(\"" + toks[i + 2].text +
                             "\") is not a registered RMB_*_MUTATE "
                             "hook; register it in "
                             "common::kMutationHooks and "
                             "lint::registeredHooks");
                }
                continue;
            }
            if (isIdent(t, "envFlag") && i + 1 < toks.size() &&
                toks[i + 1].text == "(") {
                if (startsWith(f.path, "src/")) {
                    emit(f, t.line,
                         "envFlag from library code (src/): env "
                         "vars must not steer simulation "
                         "behaviour; only bench/tools/tests may "
                         "read conveniences");
                } else if (i + 2 < toks.size() &&
                           toks[i + 2].kind == TokKind::String &&
                           !validHookName(toks[i + 2].text)) {
                    emit(f, t.line,
                         "envFlag(\"" + toks[i + 2].text +
                             "\") does not follow the RMB_* "
                             "namespace");
                }
                continue;
            }
        }
    }
}

// ---------------------------------------------------------------
// metric-name
// ---------------------------------------------------------------

void
checkMetricNames(const std::vector<SourceFile> &files,
                 const Emit &emit)
{
    struct Site
    {
        const SourceFile *file;
        int line;
    };
    std::map<std::string, std::vector<Site>> registrations;

    for (const SourceFile &f : files) {
        const bool in_src = startsWith(f.path, "src/");
        const bool in_tools = startsWith(f.path, "tools/");
        const auto &toks = f.lex.tokens;
        for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::Identifier)
                continue;
            const bool member_call = toks[i - 1].text == "." ||
                                     toks[i - 1].text == "->";
            if (!member_call || toks[i + 1].text != "(" ||
                toks[i + 2].kind != TokKind::String)
                continue;
            const std::string &name = toks[i + 2].text;
            const bool registry_call =
                t.text == "counter" || t.text == "sampler" ||
                t.text == "level" || t.text == "histogram";
            const bool series_call = t.text == "addSeries" ||
                                     t.text == "addCounterSeries";
            if (registry_call && in_src) {
                if (!validMetricName(name)) {
                    emit(f, t.line,
                         "metric '" + name +
                             "' does not follow the rmb.* / hier.* "
                             "/ net.* / shard<i>.* naming "
                             "convention");
                } else {
                    registrations[name].push_back({&f, t.line});
                }
            } else if (series_call && (in_src || in_tools)) {
                const bool shard_ok = validMetricName(name);
                if (!lowerWord(name) && !shard_ok) {
                    emit(f, t.line,
                         "timeline series '" + name +
                             "' must be lowercase dotted words "
                             "(or shard<i>.*)");
                }
            }
        }
    }

    for (const auto &[name, sites] : registrations) {
        if (sites.size() < 2)
            continue;
        for (std::size_t s = 1; s < sites.size(); ++s) {
            emit(*sites[s].file, sites[s].line,
                 "metric '" + name +
                     "' registered at more than one call site "
                     "(first: " +
                     sites[0].file->path +
                     "); register once and share the reference");
        }
    }
}

// ---------------------------------------------------------------
// header-guard
// ---------------------------------------------------------------

void
checkHeaderGuards(const std::vector<SourceFile> &files,
                  const Emit &emit)
{
    for (const SourceFile &f : files) {
        if (!f.isHeader)
            continue;
        if (f.lex.ifndefGuardLine != 0) {
            emit(f, f.lex.ifndefGuardLine,
                 "old-style #ifndef guard '" +
                     f.lex.ifndefGuardName +
                     "'; the tree standardised on #pragma once");
        }
        if (!f.lex.hasPragmaOnce) {
            emit(f, 1, "header lacks #pragma once");
        }
    }
}

} // namespace

// ---------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------

std::vector<std::string>
checkNames()
{
    std::vector<std::string> names;
    for (const CheckInfo &c : kChecks)
        names.push_back(c.name);
    return names;
}

std::string
checkDescription(const std::string &check)
{
    for (const CheckInfo &c : kChecks)
        if (check == c.name)
            return c.description;
    return "";
}

std::vector<Finding>
runChecks(const std::vector<SourceFile> &files,
          const std::set<std::string> &enabled,
          const std::vector<AllowEntry> &allow)
{
    std::vector<Finding> findings;
    std::string current_check;
    const Emit emit = [&](const SourceFile &f, int line,
                          const std::string &message) {
        if (suppressed(f.lex, line, current_check))
            return;
        for (const AllowEntry &a : allow) {
            const bool check_ok =
                a.check == "*" || a.check == current_check;
            const bool file_ok = a.file == "*" || a.file == f.path;
            const bool token_ok =
                a.token == "*" ||
                message.find(a.token) != std::string::npos;
            if (check_ok && file_ok && token_ok)
                return;
        }
        findings.push_back({current_check, f.path, line, message});
    };

    const auto want = [&](const char *name) {
        return enabled.empty() || enabled.count(name) != 0;
    };
    if (want("determinism-hazard")) {
        current_check = "determinism-hazard";
        checkDeterminism(files, emit);
    }
    if (want("layering")) {
        current_check = "layering";
        checkLayering(files, emit);
    }
    if (want("env-hook")) {
        current_check = "env-hook";
        checkEnvHooks(files, emit);
    }
    if (want("metric-name")) {
        current_check = "metric-name";
        checkMetricNames(files, emit);
    }
    if (want("header-guard")) {
        current_check = "header-guard";
        checkHeaderGuards(files, emit);
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.check != b.check)
                      return a.check < b.check;
                  return a.message < b.message;
              });
    return findings;
}

bool
parseAllowFile(const std::string &content,
               std::vector<AllowEntry> &out, std::string &error)
{
    std::size_t start = 0;
    int lineno = 0;
    while (start <= content.size()) {
        std::size_t end = content.find('\n', start);
        if (end == std::string::npos)
            end = content.size();
        std::string line = content.substr(start, end - start);
        start = end + 1;
        ++lineno;
        const std::size_t hash = line.find('#');
        std::string comment;
        if (hash != std::string::npos) {
            comment = line.substr(hash + 1);
            line = line.substr(0, hash);
        }
        std::vector<std::string> fields;
        std::string cur;
        for (char c : line) {
            if (c == ' ' || c == '\t') {
                if (!cur.empty())
                    fields.push_back(cur);
                cur.clear();
            } else {
                cur += c;
            }
        }
        if (!cur.empty())
            fields.push_back(cur);
        if (fields.empty())
            continue; // blank or comment-only line
        if (fields.size() != 3) {
            error = "allowlist line " + std::to_string(lineno) +
                    ": expected '<check> <file> <token>  # reason'";
            return false;
        }
        if (comment.find_first_not_of(" \t") == std::string::npos) {
            error = "allowlist line " + std::to_string(lineno) +
                    ": entry needs a '# reason' justification";
            return false;
        }
        out.push_back({fields[0], fields[1], fields[2]});
    }
    return true;
}

std::string
findingsToJson(const std::vector<Finding> &findings)
{
    obs::JsonWriter json;
    json.beginObject();
    json.field("tool", "rmblint");
    json.field("findings_total",
               static_cast<std::uint64_t>(findings.size()));
    json.beginArray("findings");
    for (const Finding &f : findings) {
        json.beginObject();
        json.field("check", f.check);
        json.field("file", f.file);
        json.field("line", static_cast<std::uint64_t>(f.line));
        json.field("message", f.message);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

bool
loadBaseline(const std::string &content, std::set<std::string> &keys,
             std::string &error)
{
    obs::JsonValue doc;
    if (!obs::jsonParse(content, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "baseline must be a JSON object";
        return false;
    }
    const obs::JsonValue *arr = doc.find("findings");
    if (arr == nullptr || !arr->isArray()) {
        error = "baseline lacks a \"findings\" array";
        return false;
    }
    for (const obs::JsonValue &e : arr->array()) {
        if (!e.isObject()) {
            error = "baseline finding entries must be objects";
            return false;
        }
        const obs::JsonValue *check = e.find("check");
        const obs::JsonValue *file = e.find("file");
        const obs::JsonValue *message = e.find("message");
        if (check == nullptr || file == nullptr ||
            message == nullptr || !check->isString() ||
            !file->isString() || !message->isString()) {
            error = "baseline finding entries need string "
                    "check/file/message";
            return false;
        }
        Finding f;
        f.check = check->string();
        f.file = file->string();
        f.message = message->string();
        keys.insert(f.key());
    }
    return true;
}

} // namespace lint
} // namespace rmb

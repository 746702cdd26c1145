/**
 * @file
 * Text helpers shared by the observability renderers (the trace in
 * obs/tracer.cpp and the timeline in obs/timeline.cpp): JSON string
 * escaping and the `%.9g` number format every rendered value uses.
 * Both append to a caller-owned buffer, so a renderer builds its output
 * without a temporary string per field.
 */

#ifndef PIMBA_OBS_JSON_TEXT_H
#define PIMBA_OBS_JSON_TEXT_H

#include <string>
#include <string_view>

namespace pimba {

/** Append @p s as the body of a JSON string (no quotes): `"` and `\`
 *  are backslash-escaped, and every byte below 0x20 becomes `\b`,
 *  `\f`, `\n`, `\r`, `\t` or `\u00XX`, so any label renders valid
 *  JSON. Other bytes pass through unchanged. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Append @p v formatted exactly as `printf("%.9g", v)` would, via
 *  std::to_chars (locale-free, no format-string parsing). */
void appendNumber(std::string &out, double v);

} // namespace pimba

#endif // PIMBA_OBS_JSON_TEXT_H

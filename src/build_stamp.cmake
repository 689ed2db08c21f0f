# Writes the build stamp header that obs::RunInfo reports as `version`:
# `git describe` of the source tree, or "unknown" outside a git checkout.
# Runs as a `cmake -P` step on every build, so a build tree reused across
# commits names the commit it built; the header is rewritten only when its
# text changes, so an unchanged stamp recompiles nothing.
#
#   cmake -DSOURCE_DIR=<dir in the checkout> -DOUTPUT=<header> -P build_stamp.cmake
execute_process(
  COMMAND git describe --always --dirty --tags
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE describe
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT describe)
  set(describe "unknown")
endif()
set(text "// Generated by src/build_stamp.cmake on every build; do not edit.\n#define LAAR_GIT_DESCRIBE \"${describe}\"\n")
set(previous "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} previous)
endif()
if(NOT previous STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()

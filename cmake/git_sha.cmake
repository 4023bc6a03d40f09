# Writes OUTPUT, a header defining MELODY_GIT_SHA as the 12-digit sha of the
# checkout that holds SOURCE_DIR ("unknown" without git or outside a
# checkout). Run with `cmake -DSOURCE_DIR=... -DOUTPUT=... -P git_sha.cmake`
# on every build; the file is rewritten only when its text changes, so an
# unchanged sha recompiles nothing.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha unknown)
endif()
set(text "#define MELODY_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE ${OUTPUT} "${text}")
endif()
